"""Layer-wise smoothing-ratio search over a calibration batch.

For every linear layer the calibrator computes a per-channel activation
statistic, sweeps the exponent r over a grid, and keeps the r whose scale
x_stat^r minimizes the mean squared difference between the layer's
full-precision and quantization-exposed outputs. A propagation strategy,
a row of `STREAMS`, controls which activations later layers calibrate on;
passact2 follows the real inference path, and none and passact1 are its
ablations.

Quantization-exposed batch work runs the block loop of
`model.apply_linear_quant`, the one quantized linear, which the
single-sample forwards call on a batch of one. It takes its weight half,
Qw(W*s), built by `model.quantized_weight`: `search_ratio` and the
distributed search build one per grid point, and `CalibrationWalk.fix_scale`
one per fixed linear. `search_ratio` scores each block as it comes out of
the loop, and may score several grid points at once on a thread pool.
Full-precision batch work runs blocks of whole samples through the layer
kernels the single-sample forwards use. A block's linear is one stacked
matmul, which runs the per-sample gemms and keeps their bytes; a flattened
(k*N, C) gemm would not keep them.

The distributed calibrator is this single-context loop with a remote grid
search: `calibrate` and `distcal.run_distributed_calibration` both run
`_calibration_loop` (selection, walk, statistic, search, `power_scale`,
`fix_scale`) and differ only in the per-layer search and in the
`WalkObserver` that ledgers memory. The workers receive the identical
tensors, so the two results agree bit for bit.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeError, TlqError
from .importance import select_top_tokens, token_importance_sums
from .layers import LayerStack, Linear, RMSNorm, layer_output_channels
from .model import (
    ProxyLossSpec,
    _Reader,
    _block_samples,
    _check_input,
    _linear_quant_blocks,
    _validate_quant_cfgs,
    apply_layer_fp,
    apply_linear_quant,
    backward_token_grads,
    pack_layers,
    quantized_weight,
    unpack_layers,
)
from .quantizer import DEFAULT_SCALE_FLOOR, QuantConfig, QuantizedTensor, quantize
from .smoothing import SmoothScale, fuse_into_predecessor, power_scale

# each strategy's streams in ledger order, each mapped to the layer that carries it
# past a fixed linear: "fp" the full-precision one, "q" the quantized one. The first
# stream feeds the FP reference; the last feeds the quantized function and the statistic.
STREAMS = {"none": {"main": "fp"}, "passact1": {"fp": "fp", "q": "q"}, "passact2": {"main": "q"}}
STRATEGIES = tuple(STREAMS)
STAT_MODES = ("mean", "max", "topk", "sqrt")

QUANTIZED_MAGIC = b"TLQQNT01"

# relative tolerance under which two grid losses count as tied
TIE_REL_TOL = 1e-12

# largest ratio grid (0..1 at step 0.001); every point is a full layer search
MAX_GRID_POINTS = 1001

# OpenBLAS runs a gemm of up to 2^18 multiply-adds on one thread. After a
# larger one its idle worker spins on another core, and numpy threads that
# share the cores slow down, so `search_ratio` pools its points only up to it.
POOL_MAX_GEMM = 1 << 18


@dataclass(frozen=True)
class RatioGrid:
    start: float = 0.0
    stop: float = 1.0
    step: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.start <= self.stop <= 1.0:
            raise ConfigError(f"ratio grid must satisfy 0 <= start <= stop <= 1, got [{self.start}, {self.stop}]")
        if not 0 < self.step < float("inf"):
            raise ConfigError(f"ratio grid step must be finite and > 0, got {self.step}")
        count = self._count()  # counted, not built: a tiny step would otherwise allocate for minutes
        if count > MAX_GRID_POINTS:
            raise ConfigError(
                f"ratio grid step {self.step} gives {count:.6g} points; at most {MAX_GRID_POINTS} are allowed"
            )

    def _count(self) -> float:
        """Whole steps within stop, plus stop unless the last lands within 1e-12 of it (inf for a tiny step)."""
        n = float(np.floor((self.stop - self.start) / self.step + 1e-9))
        return n + 1 + (self.start + n * self.step < self.stop - 1e-12)

    def points(self) -> tuple[float, ...]:
        """start + i*step for every point but the last, which is exactly stop."""
        return tuple(self.start + i * self.step for i in range(int(self._count()) - 1)) + (self.stop,)


@dataclass(frozen=True)
class LayerCalibration:
    name: str
    scale: SmoothScale
    ratio: float
    loss_curve: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CalibrationResult:
    """What `calibrate` returns and `load_result` reads; every field rule of both is here."""

    layers: tuple[LayerCalibration, ...]
    strategy: str
    stat_mode: str
    bits_w: int
    bits_a: int
    fraction: float
    grid: RatioGrid

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.stat_mode not in STAT_MODES:
            raise ConfigError(f"stat mode must be one of {STAT_MODES}, got {self.stat_mode!r}")
        if not 0.0 < self.fraction <= 1.0:  # NaN fails too; every stat mode records it
            raise ConfigError(f"fraction must be in (0, 1], got {self.fraction!r}")
        QuantConfig(self.bits_w)
        QuantConfig(self.bits_a)
        for row in self.layers:
            if not 0.0 <= row.ratio <= 1.0:
                raise ConfigError(f"ratio of {row.name!r} must be in [0, 1], got {row.ratio!r}")


def _sq_diff_sums(y_fp: np.ndarray, y_q: np.ndarray) -> np.ndarray:
    """Each (N, C) sample's squared L2 difference over a (k, N, C) block; overwrites y_q, reads y_fp."""
    y_q -= y_fp
    np.multiply(y_q, y_q, out=y_q)
    return np.sum(y_q, axis=(1, 2))


def layer_loss(y_fp: np.ndarray, y_q: np.ndarray) -> float:
    """Batch mean of each (N, C) sample's squared L2 difference; overwrites y_q, reads y_fp."""
    if y_fp.ndim != 3 or y_fp.shape != y_q.shape:
        raise ShapeError(f"layer loss needs two (B, N, C) outputs of one shape, got {y_fp.shape} and {y_q.shape}")
    return float(np.mean(_sq_diff_sums(y_fp, y_q)))


def _batch_fp(layer, xs: np.ndarray) -> np.ndarray:
    """One full-precision layer over a (B, N, C) batch, one block of whole samples at a time.

    Each block is written into the one preallocated output, so no second
    batch-sized array is alive.
    """
    out = np.empty((*xs.shape[:2], layer_output_channels(layer, xs.shape[2])))
    samples = _block_samples(xs)
    for start in range(0, xs.shape[0], samples):
        out[start : start + samples] = apply_layer_fp(layer, xs[start : start + samples])
    return out


def select_ratio(curve: Sequence[tuple[float, float]]) -> float:
    """Grid minimizer; losses within TIE_REL_TOL of the best tie to smaller r. Each loss must be >= 0."""
    if len(curve) == 0:
        raise ConfigError("empty ratio grid")
    if not all(loss >= 0.0 for _, loss in curve):  # NaN fails too
        raise NumericError("a curve loss is negative or NaN")
    best = min(loss for _, loss in curve)
    cutoff = best + abs(best) * TIE_REL_TOL
    return next(r for r, loss in curve if loss <= cutoff)


def row_fault(points: tuple[float, ...], curve: Sequence[tuple[float, float]], ratio: float) -> str | None:
    """How a layer's curve and ratio break the rule `calibrate` keeps, or None.

    The rule: the curve's ratios are the grid's `points` in order, every
    loss is >= 0 and not NaN, and the ratio is the curve's `select_ratio`.
    """
    if tuple(r for r, _ in curve) != points:
        return "its curve's ratios are not the grid's points"
    try:
        return None if ratio == select_ratio(curve) else "its ratio is not its curve's select_ratio"
    except NumericError as exc:
        return str(exc)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _search_threads(points: int, xs: np.ndarray, c_out: int) -> int:
    """Threads that score one layer's grid points; 1 scores them in grid order.

    Above POOL_MAX_GEMM the gemm itself runs on several BLAS threads, so the
    points run in order. Otherwise the count is bounded by the points, the
    usable CPUs, and the memory a point used to hold alone, a batch-sized
    y_q beside its input and output blocks: each thread holds two blocks.
    """
    b, n, c_in = xs.shape
    if n * c_in * c_out > POOL_MAX_GEMM:
        return 1
    blocks = max(1, min(_block_samples(xs), b) * n * (c_in + c_out))  # an empty batch fails later, in order
    return max(1, min(points, _usable_cpus(), (b * n * c_out + blocks) // blocks))


def search_ratio(
    layer: Linear,
    q_inputs: np.ndarray,
    fp_inputs: np.ndarray,
    x_stat: np.ndarray,
    grid: RatioGrid,
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Evaluate the reconstruction loss at every grid point and pick r*.

    Each point is scored one block of whole samples at a time, so no
    batch-sized y_q is built; its loss has the bytes of `layer_loss` on
    the whole batch. The points run on `_search_threads` threads and the
    curve keeps grid order, so the thread count changes no byte.
    """
    if x_stat.shape != (layer.weight.shape[1],):
        raise ShapeError(
            f"layer {layer.name!r}: x_stat length {x_stat.shape} vs {layer.weight.shape[1]} input channels"
        )
    if q_inputs.shape != fp_inputs.shape:
        raise ShapeError(f"layer {layer.name!r}: inputs differ: {q_inputs.shape} vs {fp_inputs.shape}")
    y_fp = _batch_fp(layer, fp_inputs)
    b, n = q_inputs.shape[:2]
    block_shape = (min(_block_samples(q_inputs), b), n, layer.weight.shape[0])

    def loss_at(r: float) -> float:
        scale = power_scale(x_stat, r)
        blocks = _linear_quant_blocks(layer, q_inputs, scale, quantized_weight(layer, scale, cfg_w), cfg_a,
                                      np.empty(block_shape))
        sums = np.empty(b)
        for start, y_q in blocks:
            stop = start + y_q.shape[0]
            sums[start:stop] = _sq_diff_sums(y_fp[start:stop], y_q)
        return float(np.mean(sums))

    points = grid.points()
    threads = _search_threads(len(points), q_inputs, layer.weight.shape[0])
    if threads == 1:
        losses = list(map(loss_at, points))
    else:
        with ThreadPoolExecutor(threads, thread_name_prefix="tlq-search") as pool:
            losses = list(pool.map(loss_at, points))
    curve = tuple(zip(points, losses))
    return select_ratio(curve), curve


def gradient_pass_bytes(stack: LayerStack, n_tokens: int) -> int:
    """Charge of one sample's selection pass (trace, saved values, gradients); its live peak may pass it by < 64 KiB."""
    return 2 * sum(8 * n_tokens * w for w in stack.widths())


class WalkObserver:
    """Memory hooks of the calibration loop; the default hooks do nothing.

    Each distributed worker charges its own `distcal.MemoryAccount`, which
    is an observer; the coordinator passes its account to the loop. The walk
    tags its streams `stream:<name>` and each layer's parameters
    `params[L<index>]`; `compute_token_selections` brackets each sample's
    gradient pass with `alloc(nbytes, "grad-pass")` and `free(nbytes,
    "grad-pass")`, nbytes being `gradient_pass_bytes`.
    """

    def alloc(self, nbytes: int, tag: str) -> None:
        pass

    def free(self, nbytes: int, tag: str) -> None:
        pass


def compute_token_selections(
    stack: LayerStack,
    activations: np.ndarray,
    fraction: float,
    loss: ProxyLossSpec,
    observer: WalkObserver | None = None,
    layers: Sequence[int] | None = None,
) -> dict[int, tuple[int, ...]]:
    """Top-token sets of `layers` (layer indices, default the linears') from full-precision gradients.

    Gradients are taken once on the unquantized model, sample by sample, so
    selection never depends on partially fixed scales and only one sample's
    traces are alive at a time. The observer's "grad-pass" bytes bracket
    each sample's trace lifetime for memory accounting.
    """
    if not 0.0 < fraction <= 1.0:  # before any backward pass; NaN fails too
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    obs = observer or WalkObserver()
    trace_bytes = gradient_pass_bytes(stack, activations.shape[1])
    keep = [i for i, _ in stack.linears()] if layers is None else layers

    def grad_passes():
        for x in activations:
            obs.alloc(trace_bytes, "grad-pass")
            grads = backward_token_grads(stack, x, loss, keep)
            yield [grads[l] for l in keep]
            obs.free(trace_bytes, "grad-pass")

    sums = token_importance_sums(grad_passes())
    return {l: select_top_tokens(s, fraction) for l, s in zip(keep, sums)}


def layer_stat(
    xs: np.ndarray,
    stat_mode: str,
    layer: Linear,
    selection: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Per-channel scale statistic of one layer's (B, N, C) calibration inputs, samples pooled.

    topk: max |x| over the selected tokens; mean, max: mean or max |x| over
    all tokens; sqrt: SmoothQuant's sqrt(max|X| / max|W|), both sides floored.
    """
    if stat_mode not in STAT_MODES:
        raise ConfigError(f"stat mode must be one of {STAT_MODES}, got {stat_mode!r}")
    if stat_mode == "topk":
        if selection is None:
            raise ConfigError("topk stat mode needs a token selection")
        idx = np.asarray(selection)
        if idx.size == 0:
            raise ShapeError("empty token selection")
        if idx.min() < 0 or idx.max() >= xs.shape[1]:
            raise ShapeError(f"selection indices out of range for {xs.shape[1]} tokens")
        xs = xs[:, idx, :]
    rows = np.abs(xs.reshape(-1, xs.shape[-1]))
    if stat_mode == "mean":
        return np.mean(rows, axis=0)
    x_absmax = np.max(rows, axis=0)
    if stat_mode != "sqrt":
        return x_absmax
    w_absmax = np.max(np.abs(layer.weight), axis=0)
    return np.sqrt(np.maximum(x_absmax, DEFAULT_SCALE_FLOOR) / np.maximum(w_absmax, DEFAULT_SCALE_FLOOR))


def scale_for(stat_mode: str, stat: np.ndarray, ratio: float) -> SmoothScale:
    """`power_scale` under the name the benchmark's replay calls; `stat_mode` is unused."""
    return power_scale(stat, ratio)


@dataclass(frozen=True)
class LinearTask:
    """One linear layer ready for calibration, with its strategy streams."""

    index: int
    layer: Linear
    stat_inputs: np.ndarray  # (B, N, C) inputs that feed the scale statistic
    fp_inputs: np.ndarray  # inputs of the full-precision reference output
    q_inputs: np.ndarray  # inputs consumed by the quantized function


def _param_bytes(layer) -> int:
    # the dominant parameter tensor: weight matrix / gain vector; activations
    # have no parameters
    if isinstance(layer, Linear):
        return layer.weight.nbytes
    if isinstance(layer, RMSNorm):
        return layer.gain.nbytes
    return 0


class CalibrationWalk:
    """Strategy-aware propagation of calibration activations through a stack.

    `next_linear` advances every live stream through full-precision layers
    until the next linear layer and returns its calibration task (or None at
    the end of the stack); `fix_scale` commits that layer's smoothing scale
    and carries each stream past it by the layer its `STREAMS` row names.
    """

    def __init__(
        self,
        stack: LayerStack,
        activations: np.ndarray,
        strategy: str,
        cfg_w: QuantConfig,
        cfg_a: QuantConfig,
        observer: WalkObserver | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        if activations.ndim != 3:
            raise ShapeError(f"calibration activations must be (B, N, C), got {activations.shape}")
        _validate_quant_cfgs(cfg_w, cfg_a)
        self.stack = stack
        self.strategy = strategy
        self.cfg_w = cfg_w
        self.cfg_a = cfg_a
        self.obs = observer or WalkObserver()
        self._streams = dict.fromkeys(STREAMS[strategy], activations)
        for name, arr in self._streams.items():
            self.obs.alloc(arr.nbytes, f"stream:{name}")
        self._idx = 0
        self._pending: Linear | None = None

    def _params(self, hook) -> None:
        # parameter lifetime of the current layer; activations have none
        nbytes = _param_bytes(self.stack.layers[self._idx])
        if nbytes:
            hook(nbytes, f"params[L{self._idx}]")

    def _replace_stream(self, name: str, new: np.ndarray) -> None:
        self.obs.alloc(new.nbytes, f"stream:{name}")
        self.obs.free(self._streams[name].nbytes, f"stream:{name}")
        self._streams[name] = new

    def _advance_fp(self, layer) -> None:
        self._params(self.obs.alloc)
        for name in self._streams:
            self._replace_stream(name, _batch_fp(layer, self._streams[name]))
        self._params(self.obs.free)
        self._idx += 1

    def next_linear(self) -> LinearTask | None:
        if self._pending is not None:
            raise ConfigError("previous linear layer was not fixed (call fix_scale first)")
        while self._idx < len(self.stack.layers):
            layer = self.stack.layers[self._idx]
            if isinstance(layer, Linear):
                self._pending = layer
                self._params(self.obs.alloc)
                streams = list(self._streams.values())
                return LinearTask(self._idx, layer, streams[-1], streams[0], streams[-1])
            self._advance_fp(layer)
        for name, arr in self._streams.items():
            self.obs.free(arr.nbytes, f"stream:{name}")
        self._streams = {}
        return None

    def fix_scale(self, scale: SmoothScale) -> None:
        if self._pending is None:
            raise ConfigError("no pending linear layer to fix")
        layer, carriers = self._pending, STREAMS[self.strategy]
        w_hat = quantized_weight(layer, scale, self.cfg_w) if "q" in carriers.values() else None
        for name, by in carriers.items():
            x = self._streams[name]
            new = _batch_fp(layer, x) if by == "fp" else apply_linear_quant(layer, x, scale, w_hat, self.cfg_a)
            self._replace_stream(name, new)
        self._params(self.obs.free)
        self._pending = None
        self._idx += 1


# one layer's grid search: (task, x_stat) -> (r*, loss curve)
LayerSearch = Callable[[LinearTask, np.ndarray], tuple[float, tuple[tuple[float, float], ...]]]


def calibrate(
    stack: LayerStack,
    activations: np.ndarray,
    *,
    strategy: str = "passact2",
    stat_mode: str = "topk",
    grid: RatioGrid = RatioGrid(),
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
    fraction: float = 0.5,
    loss: ProxyLossSpec = ProxyLossSpec(),
) -> CalibrationResult:
    """Run the full layer-wise ratio search over a calibration batch.

    `activations` is the (B, N, C) float64 calibration tensor (CalibrationSet
    modality tags play no role here; selection is purely gradient-driven).
    A batch that is not C-contiguous is copied once into C order, because
    layout changes the bytes of the rmsnorm sums and the stacked gemms.
    """

    def search(task: LinearTask, stat: np.ndarray):
        return search_ratio(task.layer, task.q_inputs, task.fp_inputs, stat, grid, cfg_w, cfg_a)

    return _calibration_loop(
        stack, activations, search, WalkObserver(),
        strategy=strategy, stat_mode=stat_mode, grid=grid, cfg_w=cfg_w, cfg_a=cfg_a, fraction=fraction, loss=loss,
    )


def _calibration_loop(
    stack: LayerStack, activations: np.ndarray, search: LayerSearch, observer: WalkObserver, *,
    strategy: str, stat_mode: str, grid: RatioGrid, cfg_w: QuantConfig, cfg_a: QuantConfig,
    fraction: float, loss: ProxyLossSpec,
) -> CalibrationResult:
    """The layer-wise loop of `calibrate` and the distributed calibrator.

    `search` scores one layer's grid; `observer` sees every memory event of
    the selection passes and the walk, in order.
    """
    header = CalibrationResult((), strategy, stat_mode, cfg_w.bits, cfg_a.bits, fraction, grid)  # checks run first
    if activations.ndim != 3:  # the walk's check; selection would take an (N, C) batch's rows for samples
        raise ShapeError(f"calibration activations must be (B, N, C), got {activations.shape}")
    # float64 in every stat mode; a copy, not ledgered, only for a batch that is not C-contiguous
    activations = _check_input(stack, activations)
    if 0 in activations.shape[:2]:
        raise ShapeError(f"calibration batch needs at least one sample and one token, got {activations.shape}")
    selections = compute_token_selections(stack, activations, fraction, loss, observer) if stat_mode == "topk" else {}
    walk = CalibrationWalk(stack, activations, strategy, cfg_w, cfg_a, observer)
    rows: list[LayerCalibration] = []
    while (task := walk.next_linear()) is not None:
        sel = selections.get(task.index)
        stat = layer_stat(task.stat_inputs, stat_mode, task.layer, sel)
        r_star, curve = search(task, stat)
        scale = power_scale(stat, r_star)
        rows.append(LayerCalibration(task.layer.name, scale, r_star, curve))
        walk.fix_scale(scale)
        del task  # it holds the streams fix_scale replaced; free them before the walk advances
    return replace(header, layers=tuple(rows))


def scales_from_result(result: CalibrationResult) -> dict[str, SmoothScale]:
    return {row.name: row.scale for row in result.layers}


def check_result_layers(stack: LayerStack, result: CalibrationResult) -> None:
    """Raise ConfigError unless the result has one row per linear, each scale as wide as its input."""
    widths = {lin.name: lin.weight.shape[1] for _, lin in stack.linears()}
    got = [row.name for row in result.layers]
    if sorted(got) != sorted(widths):
        missing = [n for n in widths if n not in got]
        extra = [n for n in got if n not in widths]
        repeated = sorted({n for n in got if got.count(n) > 1})
        raise ConfigError(
            f"calibration result layers do not match the stack's linear layers: "
            f"missing {missing}, extra {extra}, repeated {repeated}"
        )
    for row in result.layers:
        if row.scale.values.shape[0] != widths[row.name]:
            raise ConfigError(
                f"calibration result scale for {row.name!r} has {row.scale.values.shape[0]} "
                f"channels; the linear takes {widths[row.name]}"
            )


# --- quantized stack artifact -------------------------------------------------


@dataclass(frozen=True)
class QuantizedLinear:
    name: str
    qweight: QuantizedTensor
    bias: np.ndarray
    # explicit activation divisor for a linear with no fusable predecessor
    input_scale: np.ndarray | None


@dataclass(frozen=True)
class QuantizedStack:
    layers: tuple
    input_channels: int
    bits_w: int
    bits_a: int


def quantize_with_result(stack: LayerStack, result: CalibrationResult) -> QuantizedStack:
    """Emit the deployable artifact: fused smoothing plus quantized weights, at the result's bit widths.

    One pass from the last layer to the first: each linear's smoothing division
    folds into its rmsnorm or linear predecessor, or else (first, or after an
    activation) stays its explicit input scale. Then its own weight, which its
    successor has already folded into, is quantized per channel at `bits_w`,
    which only the `QuantizedStack` records.
    """
    cfg_w = QuantConfig(result.bits_w, "per_channel")
    check_result_layers(stack, result)
    by_name = scales_from_result(result)
    out = list(stack.layers)
    for i in reversed(range(len(out))):
        if isinstance(layer := out[i], Linear):
            scale = by_name[layer.name]
            fold = i > 0 and isinstance(out[i - 1], (RMSNorm, Linear))
            if fold:
                out[i - 1] = fuse_into_predecessor(out[i - 1], scale)
            qw = quantize(layer.weight * scale.values, cfg_w)
            out[i] = QuantizedLinear(layer.name, qw, layer.bias, None if fold else scale.values)
    return QuantizedStack(tuple(out), stack.input_channels, result.bits_w, result.bits_a)


# --- result file format (human-readable, bit-exact floats) --------------------
#
# Every float is written with repr(), which round-trips float64 exactly.

_RESULT_HEADER = "tlq-result v1"


def _origin(stat_mode: str) -> str:
    """Each row's `origin` line: a sqrt-mode scale is SmoothQuant's baseline."""
    return "sqrt_baseline" if stat_mode == "sqrt" else "stat_ratio"


def result_to_text(result: CalibrationResult) -> str:
    lines = [
        _RESULT_HEADER,
        f"strategy {result.strategy}",
        f"stat_mode {result.stat_mode}",
        f"bits_w {result.bits_w}",
        f"bits_a {result.bits_a}",
        f"fraction {repr(result.fraction)}",
        f"grid {repr(result.grid.start)} {repr(result.grid.stop)} {repr(result.grid.step)}",
        f"layers {len(result.layers)}",
    ]
    for row in result.layers:
        lines.append(f"layer {row.name}")
        lines.append(f"ratio {repr(float(row.ratio))}")
        lines.append(f"origin {_origin(result.stat_mode)}")
        lines.append(f"scale {row.scale.values.shape[0]} {' '.join(repr(float(v)) for v in row.scale.values)}")
        lines.append(f"curve {len(row.loss_curve)}")
        for r, loss in row.loss_curve:
            lines.append(f"{repr(float(r))} {repr(float(loss))}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _TextReader:
    def __init__(self, text: str):
        self.lines = iter(text.splitlines())

    def next(self, key: str | None = None) -> str:
        """The next line; given `key`, which must be the line's first word, the text after it and one space."""
        line = next(self.lines, None)
        if line is None:
            raise CheckpointError("truncated", "result text ended early")
        word, _, rest = line.partition(" ")
        if key is not None and word != key:
            raise CheckpointError("bad_field", f"expected {key!r}, got {line!r}")
        return line if key is None else rest


def _parse(kind: type, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise CheckpointError("bad_field", f"{what}: expected {kind.__name__}, got {text!r}") from None


def _count(text: str, what: str) -> int:
    n = _parse(int, text, what)
    if n < 0:
        raise CheckpointError("bad_field", f"{what}: expected a count >= 0, got {n}")
    return n


def load_result(data: bytes) -> CalibrationResult:
    """A result document read from a file: UTF-8 text for `result_from_text`."""
    return result_from_text(_Reader(data).text(len(data)))


def result_from_text(text: str) -> CalibrationResult:
    r = _TextReader(text)
    if r.next() != _RESULT_HEADER:
        raise CheckpointError("bad_magic", "not a calibration result document")
    strategy, stat_mode = r.next("strategy"), r.next("stat_mode")
    bits_w = _parse(int, r.next("bits_w"), "bits_w")
    bits_a = _parse(int, r.next("bits_a"), "bits_a")
    fraction = _parse(float, r.next("fraction"), "fraction")
    g = r.next("grid").split()
    if len(g) != 3:
        raise CheckpointError("bad_field", f"grid needs start, stop and step, got {g!r}")
    g = [_parse(float, v, "grid") for v in g]
    rows, origin = [], _origin(stat_mode)
    for _ in range(_count(r.next("layers"), "layers")):
        name = r.next("layer")
        ratio = _parse(float, r.next("ratio"), f"ratio of {name!r}")
        if r.next("origin") != origin:
            raise CheckpointError("bad_field", f"origin of {name!r}: stat mode {stat_mode} gives {origin}")
        count, _, parts = r.next("scale").partition(" ")
        count = _parse(int, count, f"scale length of {name!r}")
        values = np.array([_parse(float, v, f"scale of {name!r}") for v in parts.split()])
        if values.shape[0] != count:
            raise CheckpointError("bad_dims", f"scale for {name!r}: expected {count} values, got {values.shape[0]}")
        curve = []
        for _ in range(_count(r.next("curve"), f"curve length of {name!r}")):
            point, _, loss = r.next().partition(" ")  # 'ratio loss'
            curve.append((_parse(float, point, f"curve of {name!r}"), _parse(float, loss, f"curve of {name!r}")))
        rows.append((name, values, ratio, tuple(curve)))
    r.next("end")
    try:
        layers = tuple(LayerCalibration(name, SmoothScale(v), ratio, c) for name, v, ratio, c in rows)
        result = CalibrationResult(layers, strategy, stat_mode, bits_w, bits_a, fraction, RatioGrid(*g))
    except TlqError as exc:
        raise CheckpointError("bad_field", str(exc)) from None
    for row in result.layers:
        if fault := row_fault(result.grid.points(), row.loss_curve, row.ratio):
            raise CheckpointError("bad_field", f"layer {row.name!r}: {fault}")
    return result


# --- quantized artifact file format (TLQQNT01) --------------------------------
#
# magic(8) | u8 bits_w | u8 bits_a | u32 input_channels | layer table (model.py)
# kind 1 qlinear: u32 C_out | u32 C_in | u8 has_input_scale
#                 [f64[C_in] input scale] | f64[C_out] quant scales
#                 | i32[C_out*C_in] codes | f64[C_out] bias


def _pack_qlinear(layer: QuantizedLinear) -> list[bytes]:
    c_out, c_in = layer.qweight.q.shape
    out = [struct.pack("<IIB", c_out, c_in, 1 if layer.input_scale is not None else 0)]
    if layer.input_scale is not None:
        out.append(np.asarray(layer.input_scale, dtype="<f8").tobytes())
    out.append(np.asarray(layer.qweight.scales, dtype="<f8").tobytes())
    out.append(np.asarray(layer.qweight.q, dtype="<i4").tobytes())
    out.append(np.asarray(layer.bias, dtype="<f8").tobytes())
    return out


def save_quantized(qstack: QuantizedStack) -> bytes:
    head = struct.pack("<BBI", qstack.bits_w, qstack.bits_a, qstack.input_channels)
    return QUANTIZED_MAGIC + head + pack_layers(qstack.layers, _pack_qlinear)


def load_quantized(data: bytes) -> QuantizedStack:
    r = _Reader(data)
    if r.take(len(QUANTIZED_MAGIC)) != QUANTIZED_MAGIC:
        raise CheckpointError("bad_magic", "bad magic: not a quantized stack payload")
    bits_w, bits_a, input_channels = r.unpack("<BBI")
    try:
        QuantConfig(bits_w)
        QuantConfig(bits_a)
    except ConfigError as exc:
        raise CheckpointError("bad_field", str(exc)) from None

    def unpack_qlinear(r: _Reader, name: str) -> QuantizedLinear:
        c_out, c_in, has_input_scale = r.unpack("<IIB")
        if has_input_scale > 1:
            raise CheckpointError("bad_field", f"layer {name!r}: input-scale flag {has_input_scale}")
        input_scale = r.f64s(c_in) if has_input_scale else None
        scales = r.f64s(c_out)
        q = r.array("<i4", c_out, c_in)
        return QuantizedLinear(name, QuantizedTensor(q, scales), r.f64s(c_out), input_scale)

    layers = unpack_layers(r, unpack_qlinear)
    r.done()
    return QuantizedStack(layers, input_channels, bits_w, bits_a)

"""Layer-wise smoothing-ratio search over a calibration batch.

For every linear layer the calibrator computes a per-channel activation
statistic, sweeps the exponent r over a grid, and keeps the r whose scale
x_stat^r minimizes the mean squared difference between the layer's
full-precision and quantization-exposed outputs. Three propagation
strategies control which activations later layers calibrate on:

* none: every layer sees exact full-precision inputs.
* passact1: two streams per layer; the reference output comes from the
  full-precision stream while the quantized function consumes the stream
  produced by previously fixed quantized layers.
* passact2: a single stream where each calibrated layer's quantized output
  replaces the input of the next layer, matching the real inference path.

Quantization-exposed batch work calls `model.apply_linear_quant`, the one
quantized linear, which the single-sample forwards call on a batch of one.
Full-precision batch work runs blocks of whole samples through the layer
kernels the single-sample forwards use. A block's linear is one stacked
matmul, which runs the per-sample gemms and keeps their bytes; a flattened
(k*N, C) gemm would not keep them.

The distributed calibrator is this single-context loop with a remote grid
search: `calibrate` and `distcal.run_distributed_calibration` both run
`_calibration_loop` (selection, walk, statistic, search, `scale_for`,
`fix_scale`) and differ only in the per-layer search and in the
`WalkObserver` that ledgers memory. The workers receive the identical
tensors, so the two results agree bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import CheckpointError, ConfigError, ShapeError, TlqError
from .importance import (
    SelectedTokens,
    select_top_tokens,
    token_importance_sums,
    x_stat_baselines,
    x_stat_from_tokens,
)
from .layers import LayerStack, Linear, RMSNorm, layer_output_channels
from .model import (
    ProxyLossSpec,
    _Reader,
    _block_samples,
    _validate_quant_cfgs,
    apply_layer_fp,
    apply_linear_quant,
    backward_token_grads,
    pack_layers,
    unpack_layers,
)
from .quantizer import QuantConfig, QuantizedTensor, quantize
from .smoothing import SmoothScale, fuse_into_predecessor, power_scale, sqrt_scale

STRATEGIES = ("none", "passact1", "passact2")
STAT_MODES = ("mean", "max", "topk", "sqrt")

QUANTIZED_MAGIC = b"TLQQNT01"

# relative tolerance under which two grid losses count as tied
TIE_REL_TOL = 1e-12

# largest ratio grid (0..1 at step 0.001); every point is a full layer search
MAX_GRID_POINTS = 1001


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
        if self.start != self.stop:
            # counted, not built: a tiny step would otherwise allocate for minutes
            n = self._steps()
            count = n + 1 + (self.start + n * self.step < self.stop - 1e-12)
            if count > MAX_GRID_POINTS:
                raise ConfigError(
                    f"ratio grid step {self.step} gives {count:.6g} points; at most {MAX_GRID_POINTS} are allowed"
                )

    def _steps(self) -> float:
        """Whole steps from start that stay within stop (a float: huge, or inf, for a tiny step)."""
        return float(np.floor((self.stop - self.start) / self.step + 1e-9))

    def points(self) -> tuple[float, ...]:
        """Grid values including both endpoints."""
        if self.start == self.stop:
            return (self.start,)
        n = int(self._steps())
        pts = [self.start + i * self.step for i in range(n + 1)]
        if pts[-1] < self.stop - 1e-12:
            pts.append(self.stop)
        else:
            pts[-1] = self.stop
        return tuple(pts)


@dataclass(frozen=True)
class LayerCalibration:
    name: str
    scale: SmoothScale
    ratio: float
    loss_curve: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class CalibrationResult:
    layers: tuple[LayerCalibration, ...]
    strategy: str
    stat_mode: str
    bits_w: int
    bits_a: int
    fraction: float
    grid: RatioGrid


def layer_loss(y_fp: np.ndarray, y_q: np.ndarray) -> float:
    """Batch mean of each (N, C) sample's squared L2 difference; overwrites y_q, reads y_fp."""
    if y_fp.ndim != 3 or y_fp.shape != y_q.shape:
        raise ShapeError(f"layer loss needs two (B, N, C) outputs of one shape, got {y_fp.shape} and {y_q.shape}")
    y_q -= y_fp
    np.multiply(y_q, y_q, out=y_q)
    return float(np.mean(np.sum(y_q, axis=(1, 2))))


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
    """Grid minimizer; losses within TIE_REL_TOL of the best tie to smaller r."""
    if len(curve) == 0:
        raise ConfigError("empty ratio grid")
    best = min(loss for _, loss in curve)
    cutoff = best + abs(best) * TIE_REL_TOL
    for r, loss in curve:
        if loss <= cutoff:
            return r
    raise AssertionError("unreachable: minimum not found in its own curve")


def search_ratio(
    layer: Linear,
    q_inputs: np.ndarray,
    fp_inputs: np.ndarray,
    x_stat: np.ndarray,
    grid: RatioGrid,
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Evaluate the reconstruction loss at every grid point and pick r*."""
    if x_stat.shape != (layer.weight.shape[1],):
        raise ShapeError(
            f"layer {layer.name!r}: x_stat length {x_stat.shape} vs {layer.weight.shape[1]} input channels"
        )
    if q_inputs.shape != fp_inputs.shape:
        raise ShapeError(f"layer {layer.name!r}: inputs differ: {q_inputs.shape} vs {fp_inputs.shape}")
    y_fp = _batch_fp(layer, fp_inputs)
    # each point's y_q dies inside its loss, before the next point allocates
    curve = [
        (r, layer_loss(y_fp, apply_linear_quant(layer, q_inputs, power_scale(x_stat, r), cfg_w, cfg_a)))
        for r in grid.points()
    ]
    return select_ratio(curve), tuple(curve)


def gradient_pass_bytes(stack: LayerStack, n_tokens: int) -> int:
    """Footprint of one sample's forward trace plus its gradient trace."""
    return 2 * sum(8 * n_tokens * w for w in stack.widths())


class WalkObserver:
    """Memory hooks of the calibration loop; the default hooks do nothing.

    Each distributed worker charges its own `distcal.MemoryAccount`, which
    is an observer; the coordinator passes its account to the loop. The walk
    tags its streams `stream:<name>` and each layer's parameters
    `params[L<index>]`; `compute_token_selections` brackets each sample's
    gradient pass with `alloc(nbytes, "grad-pass")` and `free(nbytes,
    "grad-pass")`.
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
) -> list[SelectedTokens]:
    """Per-layer top-token sets from full-precision gradients over the batch.

    Gradients are taken once on the unquantized model, sample by sample, so
    selection never depends on partially fixed scales and only one sample's
    traces are alive at a time. The observer's "grad-pass" bytes bracket
    each sample's trace lifetime for memory accounting.
    """
    obs = observer or WalkObserver()
    trace_bytes = gradient_pass_bytes(stack, activations.shape[1])

    def grad_passes():
        for x in activations:
            obs.alloc(trace_bytes, "grad-pass")
            yield backward_token_grads(stack, x, loss)
            obs.free(trace_bytes, "grad-pass")

    sums = token_importance_sums(grad_passes())
    return [select_top_tokens(sums[l], fraction) for l in range(len(stack.layers))]


def layer_stat(
    xs: np.ndarray,
    stat_mode: str,
    layer: Linear,
    selection: SelectedTokens | None = None,
) -> np.ndarray:
    """Per-channel scale statistic for one layer's calibration inputs."""
    if stat_mode in ("mean", "max"):
        return x_stat_baselines(xs, stat_mode)
    if stat_mode == "topk":
        if selection is None:
            raise ConfigError("topk stat mode needs a token selection")
        return x_stat_from_tokens(xs, selection)
    if stat_mode == "sqrt":
        x_absmax = x_stat_baselines(xs, "max")
        w_absmax = np.max(np.abs(layer.weight), axis=0)
        return sqrt_scale(x_absmax, w_absmax).values
    raise ConfigError(f"stat mode must be one of {STAT_MODES}, got {stat_mode!r}")


def scale_for(stat_mode: str, stat: np.ndarray, ratio: float) -> SmoothScale:
    """Build the layer scale, labeling sqrt-derived scales with their origin."""
    scale = power_scale(stat, ratio)
    if stat_mode == "sqrt":
        return SmoothScale(scale.values, origin="sqrt_baseline", ratio=None)
    return scale


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
    and propagates past it according to the strategy.
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
        if strategy == "passact1":
            self._streams = {"fp": activations, "q": activations}
        else:
            self._streams = {"main": activations}
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
                if self.strategy == "passact1":
                    fp_in, q_in = self._streams["fp"], self._streams["q"]
                else:
                    fp_in = q_in = self._streams["main"]
                # the scale statistic comes from the same inputs the quantized
                # function consumes
                return LinearTask(self._idx, layer, q_in, fp_in, q_in)
            self._advance_fp(layer)
        for name, arr in self._streams.items():
            self.obs.free(arr.nbytes, f"stream:{name}")
        self._streams = {}
        return None

    def fix_scale(self, scale: SmoothScale) -> None:
        if self._pending is None:
            raise ConfigError("no pending linear layer to fix")
        layer = self._pending
        updates: dict[str, np.ndarray] = {}
        if self.strategy == "none":
            updates["main"] = _batch_fp(layer, self._streams["main"])
        elif self.strategy == "passact2":
            updates["main"] = apply_linear_quant(layer, self._streams["main"], scale, self.cfg_w, self.cfg_a)
        else:
            updates["fp"] = _batch_fp(layer, self._streams["fp"])
            updates["q"] = apply_linear_quant(layer, self._streams["q"], scale, self.cfg_w, self.cfg_a)
        for name, new in updates.items():
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

    `activations` is the (B, N, C) calibration tensor (CalibrationSet
    modality tags play no role here; selection is purely gradient-driven).
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
    if stat_mode not in STAT_MODES:
        raise ConfigError(f"stat mode must be one of {STAT_MODES}, got {stat_mode!r}")
    selections = None
    if stat_mode == "topk":
        selections = compute_token_selections(stack, activations, fraction, loss, observer)
    walk = CalibrationWalk(stack, activations, strategy, cfg_w, cfg_a, observer)
    rows: list[LayerCalibration] = []
    while (task := walk.next_linear()) is not None:
        sel = selections[task.index] if selections is not None else None
        stat = layer_stat(task.stat_inputs, stat_mode, task.layer, sel)
        r_star, curve = search(task, stat)
        scale = scale_for(stat_mode, stat, r_star)
        rows.append(LayerCalibration(task.layer.name, scale, r_star, curve))
        walk.fix_scale(scale)
        del task  # it holds the streams fix_scale replaced; free them before the walk advances
    return CalibrationResult(
        tuple(rows), strategy, stat_mode, cfg_w.bits, cfg_a.bits, fraction, grid
    )


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


def quantize_with_result(
    stack: LayerStack,
    result: CalibrationResult,
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
) -> QuantizedStack:
    """Emit the deployable artifact: fused smoothing plus quantized weights.

    Each linear's smoothing division is folded into its rmsnorm or linear
    predecessor; the first linear (no predecessor) keeps an explicit input
    scale. Weights are stored as per-channel quantized tensors.
    """
    _validate_quant_cfgs(cfg_w, cfg_a)
    check_result_layers(stack, result)
    by_name = scales_from_result(result)

    # fold every linear's input scale into its predecessor first, then quantize
    fused: list = list(stack.layers)
    explicit: dict[str, np.ndarray] = {}
    for i, layer in enumerate(stack.layers):
        if not isinstance(layer, Linear):
            continue
        scale = by_name[layer.name]
        if i == 0:
            explicit[layer.name] = scale.values
        else:
            fused[i - 1] = fuse_into_predecessor(fused[i - 1], scale)

    out: list = []
    for layer in fused:
        if isinstance(layer, Linear):
            scale = by_name[layer.name]
            qw = quantize(layer.weight * scale.values, cfg_w)
            out.append(
                QuantizedLinear(layer.name, qw, layer.bias, explicit.get(layer.name))
            )
        else:
            out.append(layer)
    return QuantizedStack(tuple(out), stack.input_channels, cfg_w.bits, cfg_a.bits)


# --- result file format (human-readable, bit-exact floats) --------------------
#
# Every float is written with repr(), which round-trips float64 exactly.

_RESULT_HEADER = "tlq-result v1"


def _fmt_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


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
        origin = row.scale.origin
        lines.append(f"origin {origin}")
        lines.append(f"scale {row.scale.values.shape[0]} {_fmt_floats(row.scale.values)}")
        lines.append(f"curve {len(row.loss_curve)}")
        for r, loss in row.loss_curve:
            lines.append(f"{repr(float(r))} {repr(float(loss))}")
    lines.append("end")
    return "\n".join(lines) + "\n"


class _TextReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise CheckpointError("truncated", "result text ended early")
        line = self.lines[self.pos]
        self.pos += 1
        if expect is not None and not line.startswith(expect):
            raise CheckpointError("bad_field", f"expected {expect!r}, got {line!r}")
        return line


def _parse(kind: type, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise CheckpointError("bad_field", f"{what}: expected {kind.__name__}, got {text!r}") from None


def load_result(data: bytes) -> CalibrationResult:
    """A result document read from a file: UTF-8 text for `result_from_text`."""
    r = _Reader(data)
    return result_from_text(r.text(len(data)))


def result_from_text(text: str) -> CalibrationResult:
    r = _TextReader(text)
    if r.next() != _RESULT_HEADER:
        raise CheckpointError("bad_magic", "not a calibration result document")
    strategy = r.next("strategy ").split(" ", 1)[1]
    if strategy not in STRATEGIES:
        raise CheckpointError("bad_field", f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    stat_mode = r.next("stat_mode ").split(" ", 1)[1]
    if stat_mode not in STAT_MODES:
        raise CheckpointError("bad_field", f"stat mode must be one of {STAT_MODES}, got {stat_mode!r}")
    bits_w = _parse(int, r.next("bits_w ").split(" ", 1)[1], "bits_w")
    bits_a = _parse(int, r.next("bits_a ").split(" ", 1)[1], "bits_a")
    fraction = _parse(float, r.next("fraction ").split(" ", 1)[1], "fraction")
    if not 0.0 < fraction <= 1.0:  # NaN fails too
        raise CheckpointError("bad_field", f"fraction must be in (0, 1], got {fraction!r}")
    g = r.next("grid ").split()[1:]
    if len(g) != 3:
        raise CheckpointError("bad_field", f"grid needs start, stop and step, got {g!r}")
    g = [_parse(float, v, "grid") for v in g]
    n_layers = _parse(int, r.next("layers ").split(" ", 1)[1], "layers")
    rows = []
    for _ in range(n_layers):
        name = r.next("layer ").split(" ", 1)[1]
        ratio = _parse(float, r.next("ratio ").split(" ", 1)[1], f"ratio of {name!r}")
        if not 0.0 <= ratio <= 1.0:
            raise CheckpointError("bad_field", f"ratio of {name!r} must be in [0, 1], got {ratio!r}")
        origin = r.next("origin ").split(" ", 1)[1]
        parts = r.next("scale ").split()[1:]
        if not parts:
            raise CheckpointError("bad_field", f"scale of {name!r} has no length")
        count = _parse(int, parts[0], f"scale length of {name!r}")
        values = np.array([_parse(float, v, f"scale of {name!r}") for v in parts[1:]])
        if values.shape[0] != count:
            raise CheckpointError("bad_dims", f"scale for {name!r}: expected {count} values, got {values.shape[0]}")
        n_curve = _parse(int, r.next("curve ").split(" ", 1)[1], f"curve length of {name!r}")
        curve = []
        for _ in range(n_curve):
            point = r.next().split()
            if len(point) != 2:
                raise CheckpointError("bad_field", f"curve point of {name!r}: expected 'ratio loss', got {point!r}")
            curve.append(tuple(_parse(float, v, f"curve of {name!r}") for v in point))
        try:
            scale = SmoothScale(values, origin=origin, ratio=None if origin == "sqrt_baseline" else ratio)
        except TlqError as exc:
            raise CheckpointError("bad_field", f"scale of {name!r}: {exc}") from None
        rows.append(LayerCalibration(name, scale, ratio, tuple(curve)))
    r.next("end")
    try:
        grid = RatioGrid(*g)
        QuantConfig(bits_w)
        QuantConfig(bits_a)
    except TlqError as exc:
        raise CheckpointError("bad_field", str(exc)) from None
    return CalibrationResult(tuple(rows), strategy, stat_mode, bits_w, bits_a, fraction, grid)


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
        cfg_w = QuantConfig(bits_w, "per_channel")
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
        return QuantizedLinear(name, QuantizedTensor(q, scales, cfg_w), r.f64s(c_out), input_scale)

    layers = unpack_layers(r, unpack_qlinear)
    r.done()
    return QuantizedStack(layers, input_channels, bits_w, bits_a)

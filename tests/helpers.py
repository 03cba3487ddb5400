"""Measurements only the tests take: planted-fixture checks, heatmap readers,
the rounding-error law, two small tensor builders, five reference kernels
(explicit smoothing, one sample's quantized linear, the quantized
artifact's forward pass, and the one-sample-at-a-time calibration and
evaluation), and a transport wrapper that loses, repeats, reorders or
relabels one frame."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from tlq.calibration import (
    CalibrationResult,
    LayerCalibration,
    QuantizedLinear,
    QuantizedStack,
    RatioGrid,
    scales_from_result,
    select_ratio,
)
from tlq.distcal import CalMessage
from tlq.errors import CheckpointError, ConfigError, ShapeError
from tlq.fixtures import PlantProfile
from tlq.importance import select_top_tokens, token_importance_sums
from tlq.layers import LayerStack, Linear, RMSNorm
from tlq.model import (
    CalibrationSet,
    ProxyLossSpec,
    apply_layer_fp,
    apply_linear_quant,
    backward_from_trace,
    backward_token_grads,
    forward_fp,
    forward_quant,
    loss_value,
    quantized_weights,
)
from tlq.report import EvalReport, LayerEval
from tlq.quantizer import DEFAULT_SCALE_FLOOR, QuantConfig, _qdq_inplace, dequantize, quantize
from tlq.smoothing import SmoothScale, power_scale
from tlq.tensor import Rng, matmul

# --- tensors and scales ----------------------------------------------------------


def rand_uniform(
    rng: Rng, shape: Sequence[int], low: float = 0.0, high: float = 1.0
) -> np.ndarray:
    """Uniform(low, high) tensor, deterministic for a fixed (rng, shape)."""
    return rng.generator().uniform(low, high, size=shape)


def unit_scale(channels: int) -> SmoothScale:
    """All-ones scale (no smoothing): the power scale at ratio 0."""
    return SmoothScale(np.ones(channels))


# --- reference kernels -------------------------------------------------------------


def apply_smoothing(
    x: np.ndarray, w: np.ndarray, s: SmoothScale
) -> tuple[np.ndarray, np.ndarray]:
    """Return (x / s, w * s); x w^T is preserved up to float roundoff."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"apply_smoothing expects rank-2 tensors, got {x.shape} and {w.shape}")
    c = s.values.shape[0]
    if x.shape[1] != c or w.shape[1] != c:
        raise ShapeError(
            f"scale length {c} does not match activations {x.shape} / weights {w.shape}"
        )
    return x / s.values, w * s.values


def forward_quantized(qstack: QuantizedStack, x: np.ndarray) -> np.ndarray:
    """Forward pass of the quantized artifact on one (tokens, channels) input."""
    cfg_a = QuantConfig(qstack.bits_a, "per_token")
    cur = x
    for layer in qstack.layers:
        if isinstance(layer, QuantizedLinear):
            x_s = cur / layer.input_scale if layer.input_scale is not None else cur.copy()
            _qdq_inplace(x_s, cfg_a)
            cur = matmul(x_s, dequantize(layer.qweight).T) + layer.bias
        else:
            cur = apply_layer_fp(layer, cur)
    return cur


def forward_fp_from(stack: LayerStack, start: int, x: np.ndarray) -> np.ndarray:
    """Full-precision forward through layers[start:], for finite differences and probe tails."""
    for layer in stack.layers[start:]:
        x = apply_layer_fp(layer, x)
    return x


def _layer_fp_per_sample(layer, x: np.ndarray) -> np.ndarray:
    """One layer on one (N, C) sample, written out from the layer formulas."""
    if isinstance(layer, RMSNorm):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + layer.eps) * layer.gain
    if isinstance(layer, Linear):
        return x @ layer.weight.T + layer.bias
    if layer.fn == "relu":
        return np.maximum(x, 0.0)
    return x * (0.5 * (1.0 + np.tanh(0.5 * x)))


def reference_linear_quant(lin: Linear, x: np.ndarray, scale: SmoothScale, cfg_w, cfg_a) -> np.ndarray:
    """One sample's quantized linear from the public quantizer: Qa(x/s) @ Qw(W*s).T + b."""
    w_hat = dequantize(quantize(lin.weight * scale.values, cfg_w))
    return dequantize(quantize(x / scale.values, cfg_a)) @ w_hat.T + lin.bias


def _stat_per_sample(xs: list, stat_mode: str, lin: Linear, selected) -> np.ndarray:
    """The pooled scale statistic of a list of (N, C) samples."""
    rows = np.abs(np.concatenate([x if selected is None else x[list(selected)] for x in xs]))
    if stat_mode == "mean":
        return np.mean(rows, axis=0)
    x_absmax = np.max(rows, axis=0)
    if stat_mode != "sqrt":
        return x_absmax
    w_absmax = np.max(np.abs(lin.weight), axis=0)
    return np.sqrt(np.maximum(x_absmax, DEFAULT_SCALE_FLOOR) / np.maximum(w_absmax, DEFAULT_SCALE_FLOOR))


def calibrate_per_sample(
    stack: LayerStack,
    activations: np.ndarray,
    *,
    strategy: str,
    stat_mode: str,
    grid: RatioGrid,
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
    fraction: float = 0.5,
    loss: ProxyLossSpec = ProxyLossSpec(),
) -> CalibrationResult:
    """`calibrate` one (N, C) sample at a time: the byte reference for its blocks, pool and in-place kernels.

    Each stream is a list of samples. Every linear runs one gemm per
    sample, both quantized halves come from `dequantize(quantize(.))`, and
    a grid point's loss is the mean of its per-sample squared sums.
    """
    selections = None
    if stat_mode == "topk":
        grads = [backward_token_grads(stack, x, loss) for x in activations]
        # token importance written out: sum over samples, in sample order, of mean_c |g|
        sums = [sum(np.mean(np.abs(g[l]), axis=1) for g in grads) for l in range(len(stack.layers))]
        selections = [select_top_tokens(sums[l], fraction) for l in range(len(stack.layers))]
    streams = {name: list(activations) for name in (("fp", "q") if strategy == "passact1" else ("main",))}
    rows = []
    for idx, layer in enumerate(stack.layers):
        if not isinstance(layer, Linear):
            streams = {name: [_layer_fp_per_sample(layer, x) for x in xs] for name, xs in streams.items()}
            continue
        fp_in, q_in = (streams["fp"], streams["q"]) if strategy == "passact1" else (streams["main"],) * 2
        stat = _stat_per_sample(q_in, stat_mode, layer, selections[idx] if selections else None)
        y_fp = [_layer_fp_per_sample(layer, x) for x in fp_in]
        curve = []
        for r in grid.points():
            s = power_scale(stat, r)
            diffs = [reference_linear_quant(layer, x, s, cfg_w, cfg_a) - y for x, y in zip(q_in, y_fp)]
            curve.append((r, float(np.mean([np.sum(d * d) for d in diffs]))))
        r_star = select_ratio(curve)
        scale = power_scale(stat, r_star)
        rows.append(LayerCalibration(layer.name, scale, r_star, tuple(curve)))
        if strategy == "none":
            streams = {"main": y_fp}
            continue
        q_out = [reference_linear_quant(layer, x, scale, cfg_w, cfg_a) for x in q_in]
        streams = {"main": q_out} if strategy == "passact2" else {"fp": y_fp, "q": q_out}
    return CalibrationResult(tuple(rows), strategy, stat_mode, cfg_w.bits, cfg_a.bits, fraction, grid)


def evaluate_per_sample(
    stack: LayerStack,
    result: CalibrationResult,
    calib: CalibrationSet,
    loss: ProxyLossSpec = ProxyLossSpec(),
) -> EvalReport:
    """`report.evaluate` one (N, C) sample at a time: the byte reference for its sample blocks."""
    cfg_w = QuantConfig(result.bits_w, "per_channel")
    cfg_a = QuantConfig(result.bits_a, "per_token")
    scales = scales_from_result(result)
    weights = quantized_weights(stack, scales, cfg_w)
    acts = calib.activations
    b_total = acts.shape[0]
    linears = stack.linears()
    sq_sums = {lin.name: np.empty(b_total) for _, lin in linears}
    probes = {lin.name: [0.0, 0.0] for _, lin in linears}
    fp_total = q_total = mse_total = ce_total = 0.0
    for b in range(b_total):
        x = acts[b]
        t_fp = forward_fp(stack, x)
        grads = backward_from_trace(stack, t_fp, loss)
        t_q = forward_quant(stack, x, scales, weights, cfg_a)
        fp_vals, q_vals = t_fp.values(), t_q.values()
        for idx, lin in linears:
            s = scales[lin.name]
            x_l = t_fp.inputs[idx]  # the probe, written out: perturb the input, rerun the FP tail
            delta = dequantize(quantize(x_l / s.values, cfg_a)) * s.values - x_l
            y_pert = x_l + delta
            for layer in stack.layers[idx:]:
                y_pert = apply_layer_fp(layer, y_pert)
            probes[lin.name][0] += float(np.sum(grads[idx] * delta))
            probes[lin.name][1] += loss_value(y_pert, loss) - loss_value(t_fp.output, loss)
            if result.strategy == "passact2":
                d = apply_layer_fp(lin, t_q.inputs[idx]) - q_vals[idx + 1]
            elif result.strategy == "passact1":
                d = fp_vals[idx + 1] - q_vals[idx + 1]
            else:
                d = fp_vals[idx + 1] - apply_linear_quant(lin, t_fp.inputs[idx][None], s, weights[lin.name], cfg_a)[0]
            sq_sums[lin.name][b] = np.sum(d * d)
        y_q = t_q.output
        fp_total += loss_value(t_fp.output, loss)
        q_total += loss_value(y_q, loss)
        d = y_q - t_fp.output
        mse_total += float(np.sum(d * d)) / acts.shape[1]
        labels = ProxyLossSpec("ce_pseudo", np.argmax(t_fp.output, axis=1))
        ce_total += loss_value(y_q, labels) - loss_value(t_fp.output, labels)
    fp_loss = fp_total / b_total
    quant_loss = q_total / b_total
    rows = tuple(
        LayerEval(row.name, row.ratio, float(np.mean(sq_sums[row.name])), *probes[row.name])
        for row in result.layers
    )
    return EvalReport(
        result.strategy, result.stat_mode, result.bits_w, result.bits_a, b_total, rows,
        fp_loss, quant_loss, abs(quant_loss - fp_loss), mse_total / b_total, abs(ce_total) / b_total,
    )


# --- result files -----------------------------------------------------------------------

# how a result text that `load_result` refuses, though each line parses, is made from
# one `calibrate` wrote -> the refusal's message, which names the first layer
BROKEN_RESULTS = {
    "layers_negative": "layers: expected a count >= 0, got -1",
    "curve_negative": "curve length of {name!r}: expected a count >= 0, got -1",
    "curve_off_grid": "layer {name!r}: its curve's ratios are not the grid's points",
    "loss_nan": "layer {name!r}: a curve loss is negative or NaN",
    "ratio_not_minimizer": "layer {name!r}: its ratio is not its curve's select_ratio",
}


def broken_result_text(text: str, how: str) -> tuple[str, str]:
    """(`text` broken as `how` in BROKEN_RESULTS says, the refusal's message)."""
    lines = text.splitlines()
    at = {word: next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == word)
          for word in ("layers", "layer", "ratio", "curve")}
    name, curve = lines[at["layer"]].split(" ", 1)[1], at["curve"]
    if how == "layers_negative":  # and no layer rows
        lines[at["layers"] + 1 : -1] = []
        lines[at["layers"]] = "layers -1"
    elif how == "curve_negative":  # and no curve lines
        lines[curve + 1 : curve + 1 + int(lines[curve].split()[1])] = []
        lines[curve] = "curve -1"
    elif how == "curve_off_grid":  # its first two points in the other order
        lines[curve + 1], lines[curve + 2] = lines[curve + 2], lines[curve + 1]
    elif how == "loss_nan":  # at its first point
        lines[curve + 1] = lines[curve + 1].split(" ")[0] + " nan"
    else:  # another grid point
        lines[at["ratio"]] = "ratio 1.0" if lines[at["ratio"]] == "ratio 0.0" else "ratio 0.0"
    return "\n".join(lines) + "\n", BROKEN_RESULTS[how].format(name=name)


# --- rounding error ----------------------------------------------------------------


@dataclass(frozen=True)
class ErrorStats:
    mean: float
    variance: float
    predicted_variance: float


def rounding_error_stats(x: np.ndarray, cfg: QuantConfig) -> ErrorStats:
    """Measured quantize/dequantize error moments against the uniform-noise law.

    The predicted variance is pitch^2 / 12 averaged over rows, where pitch is
    each row's actual code spacing (its scale).
    """
    qt = quantize(x, cfg)
    e = dequantize(qt) - x
    predicted = float(np.mean(qt.scales**2) / 12.0)
    return ErrorStats(float(e.mean()), float(e.var()), predicted)


# --- planted-fixture checks ----------------------------------------------------------


def first_linear_inputs(stack: LayerStack, calib: CalibrationSet) -> np.ndarray:
    """Activations entering the first linear layer, stacked over the batch."""
    first_linear = next(i for i, l in enumerate(stack.layers) if isinstance(l, Linear))
    out = []
    for b in range(calib.batch):
        x = calib.activations[b]
        for layer in stack.layers[:first_linear]:
            x = apply_layer_fp(layer, x)
        out.append(x)
    return np.stack(out)


def outlier_absmax_ratio(stack: LayerStack, calib: CalibrationSet, profile: PlantProfile) -> float:
    """Smallest planted-channel absmax over the median channel absmax."""
    pooled = np.abs(first_linear_inputs(stack, calib)).max(axis=(0, 1))
    return float(pooled[profile.outlier_channels].min() / np.median(pooled))


def modality_gradient_ratio(
    stack: LayerStack, calib: CalibrationSet, loss: ProxyLossSpec = ProxyLossSpec()
) -> float:
    """Mean visual-token gradient magnitude over mean text-token magnitude.

    Measured at the first linear layer's input, aggregated over the batch.
    """
    first_linear = next(i for i, l in enumerate(stack.layers) if isinstance(l, Linear))
    sums = token_importance_sums(backward_token_grads(stack, x, loss) for x in calib.activations)[first_linear]
    visual = calib.modality[0] == 1
    if not visual.any() or visual.all():
        raise ConfigError("gradient ratio needs both visual and text tokens")
    return float(sums[visual].mean() / sums[~visual].mean())


def min_visual_cosine(calib: CalibrationSet) -> float:
    """Minimum pairwise cosine among each sample's visual tokens."""
    worst = 1.0
    for b in range(calib.batch):
        rows = calib.activations[b][calib.modality[b] == 1]
        if rows.shape[0] < 2:
            continue
        unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        cos = unit @ unit.T
        off = cos[~np.eye(cos.shape[0], dtype=bool)]
        worst = min(worst, float(off.min()))
    return worst


# --- heatmaps ---------------------------------------------------------------------------


def near_zero_fraction(rows: list, rel_threshold: float = 1e-6) -> float:
    """Share of exported tokens whose aggregated gradient is effectively zero."""
    if not rows:
        raise ShapeError("no heatmap rows")
    sums = np.array([r[2] for r in rows])
    return float(np.mean(sums < rel_threshold * sums.max()))


def parse_heatmap_csv(text: str) -> list:
    lines = [l for l in text.splitlines() if l]
    if not lines or not lines[0].startswith("token,modality,grad_sum"):
        raise CheckpointError("bad_magic", "not a heatmap CSV")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        rows.append((int(parts[0]), int(parts[1]), float(parts[2]), [float(v) for v in parts[3:]]))
    return rows


# --- distributed faults -----------------------------------------------------------------


def faulty_transport(make_transport, fault, kind: str, stream: str | None, nth: int, receiver: int):
    """A `distcal.make_transport` whose transports fault the `nth` (from 1)
    frame of `kind` and `stream` that worker `receiver` reads.

    The frame is faulted on its way, after its sender spent its seq: "drop"
    loses it, "duplicate" delivers it twice, and "swap" delivers it after
    the next frame on its channel. Any other `fault` is a function, and
    the frame arrives as `fault(frame)`: a relabelling that a sender's bug
    would make before encoding, so the frame's checksum holds.
    """

    def build(name, worker_ids):
        transport = make_transport(name, worker_ids)
        recv, seen, held = transport._recv, itertools.count(1), {}

        def faulty(me: int, sender: int) -> CalMessage:
            if (sender, me) in held:
                return held.pop((sender, me))
            msg = recv(me, sender)
            if (me, msg.kind, msg.stream) != (receiver, kind, stream) or next(seen) != nth:
                return msg
            if fault == "drop":
                return recv(me, sender)
            if fault in ("duplicate", "swap"):
                held[(sender, me)] = msg
                return msg if fault == "duplicate" else recv(me, sender)
            return fault(msg)

        transport._recv = faulty
        return transport

    return build

"""Evaluation reports and gradient heatmap exports.

The eval report scores a calibration result from one full-precision and one
quantized forward trace per block of whole samples, with each linear's
quantized weight built once per call and shared by every block: per-layer
reconstruction losses at the fixed ratios (under the result's propagation
strategy), the end-to-end proxy-loss gap between the two passes, and the
first-order estimate of each layer's activation-error contribution against
the measured loss change. Reports are versioned structured text with
repr()-exact floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationResult, check_result_layers, compute_token_selections, scales_from_result
from .errors import ConfigError
from .importance import activation_error_probe, heatmap_rows
from .layers import LayerStack
from .model import (
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
    sample_sums,
)
from .quantizer import QuantConfig
from .tensor import Rng


@dataclass(frozen=True)
class LayerEval:
    name: str
    ratio: float
    loss: float  # reconstruction loss at the fixed ratio
    estimate: float  # first-order activation-error estimate, summed over samples
    measured: float  # measured proxy-loss change, summed over samples


@dataclass(frozen=True)
class EvalReport:
    strategy: str
    stat_mode: str
    bits_w: int
    bits_a: int
    samples: int
    layers: tuple[LayerEval, ...]
    fp_loss: float
    quant_loss: float
    end_to_end_gap: float
    output_mse: float
    ce_gap: float

    def to_text(self) -> str:
        lines = [
            "tlq-eval-report v1",
            f"strategy {self.strategy}",
            f"stat_mode {self.stat_mode}",
            f"bits_w {self.bits_w}",
            f"bits_a {self.bits_a}",
            f"samples {self.samples}",
            f"layers {len(self.layers)}",
        ]
        for l in self.layers:
            lines.append(
                f"layer {l.name} ratio {repr(l.ratio)} loss {repr(l.loss)} "
                f"estimate {repr(l.estimate)} measured {repr(l.measured)}"
            )
        lines.append(f"fp_loss {repr(self.fp_loss)}")
        lines.append(f"quant_loss {repr(self.quant_loss)}")
        lines.append(f"end_to_end_gap {repr(self.end_to_end_gap)}")
        lines.append(f"output_mse {repr(self.output_mse)}")
        lines.append(f"ce_gap {repr(self.ce_gap)}")
        lines.append("end")
        return "\n".join(lines) + "\n"


def _eval_block(stack: LayerStack, acts: np.ndarray) -> int:
    """Samples per block of `evaluate`: the most whose three traces fit in the batch's own size.

    The FP trace, the quantized trace, and the FP trace's saved sigmoids with
    the linears' gradients each hold at most k*N*sum(widths) floats, against B*N*C.
    """
    return max(1, acts.shape[0] * acts.shape[2] // (3 * sum(stack.widths())))


def evaluate(
    stack: LayerStack, result: CalibrationResult, calib: CalibrationSet, *, per_layer: bool = True
) -> EvalReport:
    """Score a calibration result on evaluation data.

    Each linear's quantized weight is built once, before the block loop.
    Each block of `_eval_block` whole samples gets one FP trace `t_fp`, one
    backward pass over it and one quantized trace `t_q`, and every number
    reads from those. With `t[l]` the input of layer `l`, a linear's loss
    compares the outputs its strategy calibrated on: passact1 `t_fp[l+1]`
    and `t_q[l+1]`; passact2 the FP layer on `t_q[l]` and `t_q[l+1]`; none
    `t_fp[l+1]` and the quantized layer on `t_fp[l]`. The batch mean of the
    per-sample squared sums has the bytes of `calibration.layer_loss`. Every
    kernel keeps each sample's bytes, and the per-sample values are added
    as floats in sample order, so the report is that of a one-sample loop.
    Without `per_layer` it has no layer rows and runs no backward or probe.
    """
    check_result_layers(stack, result)
    cfg_a = QuantConfig(result.bits_a, "per_token")
    scales = scales_from_result(result)
    weights = quantized_weights(stack, scales, QuantConfig(result.bits_w, "per_channel"))
    acts = calib.activations
    b_total = acts.shape[0]
    k = _eval_block(stack, acts)

    linears = stack.linears() if per_layer else ()
    sq_sums = {lin.name: np.empty(b_total) for _, lin in linears}
    # first-order estimate vs measured loss change, per layer, summed over batch
    probes = {lin.name: [0.0, 0.0] for _, lin in linears}
    fp_total = q_total = mse_total = ce_total = 0.0
    for start in range(0, b_total, k):
        x = acts[start : start + k]
        t_fp = forward_fp(stack, x)
        t_q = forward_quant(stack, x, scales, weights, cfg_a)
        fp_vals, q_vals = t_fp.values(), t_q.values()
        if linears:
            grads = backward_from_trace(stack, t_fp, keep=[i for i, _ in linears])
            for name, (est, meas) in activation_error_probe(stack, t_fp, grads, scales, cfg_a).items():
                for e, m in zip(est.tolist(), meas.tolist()):
                    probes[name][0] += e
                    probes[name][1] += m
        for idx, lin in linears:
            s = scales[lin.name]
            if result.strategy == "passact2":
                d = apply_layer_fp(lin, t_q.inputs[idx]) - q_vals[idx + 1]
            elif result.strategy == "passact1":
                d = fp_vals[idx + 1] - q_vals[idx + 1]
            else:
                d = fp_vals[idx + 1] - apply_linear_quant(lin, t_fp.inputs[idx], s, weights[lin.name], cfg_a)
            sq_sums[lin.name][start : start + k] = sample_sums(d * d)
        y_fp, y_q = t_fp.output, t_q.output
        d = y_q - y_fp
        labels = ProxyLossSpec("ce_pseudo", np.argmax(y_fp, axis=-1))
        ce = loss_value(y_q, labels) - loss_value(y_fp, labels)
        per_sample = (loss_value(y_fp, ProxyLossSpec()), loss_value(y_q, ProxyLossSpec()), sample_sums(d * d), ce)
        for fp_b, q_b, sq_b, ce_b in zip(*(v.tolist() for v in per_sample)):
            fp_total += fp_b
            q_total += q_b
            mse_total += sq_b / acts.shape[1]
            ce_total += ce_b

    fp_loss = fp_total / b_total
    quant_loss = q_total / b_total
    rows = tuple(
        LayerEval(row.name, row.ratio, float(np.mean(sq_sums[row.name])), *probes[row.name])
        for row in result.layers if per_layer
    )
    return EvalReport(
        result.strategy,
        result.stat_mode,
        result.bits_w,
        result.bits_a,
        b_total,
        rows,
        fp_loss,
        quant_loss,
        abs(quant_loss - fp_loss),
        mse_total / b_total,
        abs(ce_total) / b_total,
    )


def accuracy_proxy_gap(
    stack: LayerStack, result: CalibrationResult, calib: CalibrationSet
) -> float:
    """The eval report's `ce_gap`: cross-entropy increase against the full-precision model's own argmax.

    Labeling every token with the unquantized output's argmax makes the gap
    behave like a task-accuracy degradation measure: confidently classified
    tokens dominate, and dead tokens (flat logits) contribute little.
    """
    return evaluate(stack, result, calib, per_layer=False).ce_gap


# --- heatmap export -------------------------------------------------------------


@dataclass(frozen=True)
class HeatmapPair:
    channel_indices: tuple[int, ...]
    pre: list  # rows over the (subsampled) full token set
    post: list  # rows over the surviving selected tokens
    selection: tuple[int, ...]  # the layer's selected tokens, ascending


def _stratified_tokens(
    candidates: np.ndarray, modality: np.ndarray, max_tokens: int | None, rng: Rng
) -> np.ndarray:
    """Deterministic modality-preserving token subsample of `candidates`."""
    if max_tokens is None or candidates.shape[0] <= max_tokens:
        return candidates
    visual = candidates[modality[candidates] == 1]
    text = candidates[modality[candidates] == 0]
    k_vis = round(max_tokens * visual.shape[0] / candidates.shape[0])
    k_vis = min(max(k_vis, max_tokens - text.shape[0]), visual.shape[0], max_tokens)
    k_text = max_tokens - k_vis
    gen = rng.generator()
    keep_vis = gen.choice(visual, size=k_vis, replace=False) if k_vis else np.array([], dtype=int)
    keep_text = gen.choice(text, size=k_text, replace=False) if k_text else np.array([], dtype=int)
    return np.sort(np.concatenate([keep_vis, keep_text]).astype(int))


def build_heatmaps(
    stack: LayerStack,
    calib: CalibrationSet,
    layer_index: int,
    *,
    fraction: float = 0.5,
    seed: int = 0,
    sample: int = 0,
    max_tokens: int | None = None,
    max_channels: int | None = None,
) -> HeatmapPair:
    """Token-gradient magnitudes for one layer, before and after selection.

    Selection aggregates gradients over the whole batch; the exported |g|
    values come from one sample. Token subsampling preserves the visual to
    text ratio and is deterministic under the seed.
    """
    if not 0 <= layer_index < len(stack.layers):
        raise ConfigError(f"layer index {layer_index} out of range (stack has {len(stack.layers)} layers)")
    if not 0 <= sample < calib.batch:
        raise ConfigError(f"sample {sample} out of range for batch {calib.batch}")
    for what, limit in (("max tokens", max_tokens), ("max channels", max_channels)):
        if limit is not None and limit < 1:
            raise ConfigError(f"{what} must be >= 1, got {limit}")
    n = calib.tokens
    keep = (layer_index,)
    selection = compute_token_selections(stack, calib.activations, fraction, ProxyLossSpec(), layers=keep)[layer_index]
    grads_sample = backward_token_grads(stack, calib.activations[sample], keep=keep)[layer_index]

    modality = calib.modality[sample]
    rng = Rng(seed).split("heatmap")
    channels = np.arange(grads_sample.shape[1])
    if max_channels is not None and channels.shape[0] > max_channels:
        channels = np.sort(rng.split("channels").generator().choice(channels, size=max_channels, replace=False))
    pre_tokens = _stratified_tokens(np.arange(n), modality, max_tokens, rng.split("pre"))
    post_tokens = _stratified_tokens(
        np.asarray(selection, dtype=int), modality, max_tokens, rng.split("post")
    )
    chan = tuple(int(c) for c in channels)
    pre = heatmap_rows(grads_sample, modality, pre_tokens, chan)
    post = heatmap_rows(grads_sample, modality, post_tokens, chan)
    return HeatmapPair(chan, pre, post, selection)


def heatmap_csv(rows: list, channel_indices: tuple[int, ...]) -> str:
    header = "token,modality,grad_sum," + ",".join(f"c{c}" for c in channel_indices)
    lines = [header]
    for token, modality, grad_sum, vals in rows:
        lines.append(f"{token},{modality},{repr(grad_sum)}," + ",".join(repr(v) for v in vals))
    return "\n".join(lines) + "\n"


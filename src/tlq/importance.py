"""First-order output-error analysis and gradient-guided token selection.

Token importance is the gradient magnitude of the proxy loss aggregated
over the calibration batch: sums[n] = sum_b mean_c |g[b, n, c]|. The top
fraction of tokens by this statistic forms the set whose per-channel
absolute maxima (x_stat) drive the smoothing-scale search; redundant
high-magnitude, near-zero-gradient tokens then stop biasing the scales.
"""

from __future__ import annotations

import warnings
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError
from .layers import LayerStack
from .model import (
    ForwardTrace,
    ProxyLossSpec,
    backward_token_grads,
    forward_fp,
    forward_fp_from,
    loss_value,
    sample_sums,
)
from .quantizer import QuantConfig, _qdq_inplace
from .smoothing import SmoothScale


def first_order_output_error(g: np.ndarray, deltas: np.ndarray) -> float | np.ndarray:
    """Linearized loss change sum_i g_i . delta_i for one layer's perturbation, per sample of a block."""
    if g.shape != deltas.shape:
        raise ShapeError(f"gradient shape {g.shape} != perturbation shape {deltas.shape}")
    return sample_sums(g * deltas)


def channel_mean_abs(g: np.ndarray) -> np.ndarray:
    """Per-token mean of |g| over the channel dimension."""
    if g.ndim != 2:
        raise ShapeError(f"expected (tokens, channels) gradients, got {g.shape}")
    return np.mean(np.abs(g), axis=1)


def token_importance_sums(traces: Iterable[tuple[np.ndarray, ...]]) -> list[np.ndarray]:
    """Per trace entry, sum_b channel_mean_abs(g_b) over the samples' gradient traces, added in sample order.

    Given a generator, each sample's trace is computed only when it is summed.
    """
    sums = None
    for gt in traces:
        rows = [channel_mean_abs(g) for g in gt]
        if sums is not None and [r.shape for r in rows] != [t.shape for t in sums]:
            raise ShapeError(f"inconsistent token counts: {[r.shape for r in rows]} vs {[t.shape for t in sums]}")
        sums = rows if sums is None else [t + r for t, r in zip(sums, rows)]
    if sums is None:
        raise ShapeError("token importance needs at least one gradient sample")
    return sums


def select_top_tokens(sums: np.ndarray, fraction: float = 0.5) -> tuple[int, ...]:
    """Ascending indices of the ceil(fraction*N) largest token sums; ties go to the lower index.

    `compute_token_selections`, the one library caller, checks that fraction is in (0, 1].
    """
    n = sums.shape[0]
    k = ceil(fraction * n)
    if k < 2:
        warnings.warn(f"token selection kept only {k} of {n} tokens", stacklevel=2)
    # stable sort on the negated sums keeps lower indices first among ties
    order = np.argsort(-sums, kind="stable")
    chosen = np.sort(order[:k])
    return tuple(int(i) for i in chosen)


def activation_error_probe(
    stack: LayerStack,
    x: np.ndarray,
    layer_index: int,
    cfg_a: QuantConfig,
    scale: SmoothScale | None = None,
    loss: ProxyLossSpec = ProxyLossSpec(),
    *,
    trace: ForwardTrace | None = None,
    grads: tuple[np.ndarray, ...] | None = None,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Quantize one layer's input activation and compare loss-change estimates.

    Returns (first-order estimate, measured loss change) where the estimate
    is the gradient inner product with the effective input perturbation
    delta = (dequantize(quantize(x/s)) * s) - x and the measured value reruns
    the full-precision tail on the perturbed input. For a (k, N, C) block of
    samples both are (k,) arrays of per-sample values. A caller probing
    several layers of one sample or block passes its `forward_fp` trace and
    gradients, so only the tail forward is recomputed per layer.
    """
    if trace is None:
        trace = forward_fp(stack, x)
    if not 0 <= layer_index < len(stack.layers):
        raise ShapeError(f"layer index {layer_index} out of range")
    x_l = trace.inputs[layer_index]
    s = scale.values if scale is not None else np.ones(x_l.shape[-1])
    delta = x_l / s
    for d in delta.reshape(-1, *delta.shape[-2:]):  # each sample's view, quantized in place
        _qdq_inplace(d, cfg_a)
    delta *= s
    delta -= x_l
    if grads is None:
        grads = backward_token_grads(stack, x, loss)
    estimate = first_order_output_error(grads[layer_index], delta)
    y_pert = forward_fp_from(stack, layer_index, x_l + delta)
    measured = loss_value(y_pert, loss) - loss_value(trace.output, loss)
    return estimate, measured


def heatmap_rows(
    g: np.ndarray,
    modality: np.ndarray,
    token_indices: Sequence[int],
    channel_indices: Sequence[int],
) -> list[tuple[int, int, float, list[float]]]:
    """Rows (token, modality, row gradient magnitude, |g| at sampled channels)."""
    if g.ndim != 2 or modality.shape != (g.shape[0],):
        raise ShapeError(f"gradients {g.shape} and modality {modality.shape} do not align")
    sums = channel_mean_abs(g)
    out = []
    for t in token_indices:
        vals = [float(abs(g[t, c])) for c in channel_indices]
        out.append((int(t), int(modality[t]), float(sums[t]), vals))
    return out

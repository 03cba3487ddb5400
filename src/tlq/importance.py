"""First-order activation-error probe and gradient-guided token selection.

Token importance is the gradient magnitude of the proxy loss aggregated
over the calibration batch: sums[n] = sum_b mean_c |g[b, n, c]|. The top
fraction of tokens by this statistic forms the set whose per-channel
absolute maxima (x_stat) drive the smoothing-scale search; redundant
high-magnitude, near-zero-gradient tokens then stop biasing the scales.
"""

from __future__ import annotations

import warnings
from math import ceil
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ShapeError
from .layers import LayerStack, Linear
from .model import ForwardTrace, ProxyLossSpec, apply_layer_fp, loss_value, sample_sums
from .model import backward_token_grads, forward_fp  # noqa: F401 -- unused; perfbench/traced.py patches them here
from .quantizer import QuantConfig, _qdq_inplace
from .smoothing import SmoothScale


def channel_mean_abs(g: np.ndarray) -> np.ndarray:
    """Per-token mean of |g| over the channel dimension."""
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
    trace: ForwardTrace,
    grads: tuple[np.ndarray, ...],
    scales: Mapping[str, SmoothScale],
    cfg_a: QuantConfig,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Quantize each linear's input activation and compare loss-change estimates.

    `trace` is `forward_fp` on one (k, N, C) block and `grads` its
    `backward_from_trace`. Returns {linear name: (first-order estimate,
    measured loss change)}, each a (k,) array of per-sample values. The
    estimate is the gradient inner product with the effective input
    perturbation delta = (dequantize(quantize(x/s)) * s) - x; the measured
    value reruns the full-precision tail on x + delta. One walk runs every
    tail: each linear's perturbed block joins a stack just before its layer,
    and each layer runs once on the stack, which keeps each sample's bytes.
    """
    estimates, tail = {}, trace.inputs[0][:0]  # the stack starts with no sample
    for layer, x_l, g_l in zip(stack.layers, trace.inputs, grads):
        if isinstance(layer, Linear):
            s = scales[layer.name].values
            delta = x_l / s
            _qdq_inplace(delta.reshape(-1, delta.shape[-1]), cfg_a)  # per-token rows, so one call serves a block
            delta *= s
            delta -= x_l
            estimates[layer.name] = sample_sums(g_l * delta)
            tail = np.concatenate([tail, x_l + delta])
        tail = apply_layer_fp(layer, tail)
    k, base = trace.output.shape[0], loss_value(trace.output, ProxyLossSpec())
    return {
        name: (est, loss_value(tail[j * k : (j + 1) * k], ProxyLossSpec()) - base)
        for j, (name, est) in enumerate(estimates.items())
    }


def heatmap_rows(
    g: np.ndarray,
    modality: np.ndarray,
    token_indices: Sequence[int],
    channel_indices: Sequence[int],
) -> list[tuple[int, int, float, list[float]]]:
    """Rows (token, modality, row gradient magnitude, |g| at sampled channels)."""
    sums = channel_mean_abs(g)
    out = []
    for t in token_indices:
        vals = [float(abs(g[t, c])) for c in channel_indices]
        out.append((int(t), int(modality[t]), float(sums[t]), vals))
    return out

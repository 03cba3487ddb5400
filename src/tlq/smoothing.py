"""Per-channel smoothing scales and their fusion into a preceding layer.

A smoothing scale divides activations and multiplies the paired linear
layer's input columns, leaving the full-precision product unchanged while
migrating activation outliers into the weights. The division side can be
folded into an rmsnorm gain or a preceding linear layer so inference pays
no extra cost.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .layers import Linear, RMSNorm
from .quantizer import DEFAULT_SCALE_FLOOR


@dataclass(frozen=True)
class SmoothScale:
    values: np.ndarray  # (C_in,) strictly positive

    def __post_init__(self):
        if self.values.ndim != 1:
            raise ShapeError(f"smoothing scale must be rank 1, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)) or not np.all(self.values > 0):
            raise NumericError("smoothing scale values must be finite and > 0")


def power_scale(x_stat: np.ndarray, r: float) -> SmoothScale:
    """Elementwise x_stat^r with r in [0, 1]; r=0 is no smoothing, r=1 full."""
    if not 0.0 <= r <= 1.0:
        raise ConfigError(f"smoothing ratio must be in [0, 1], got {r}")
    if x_stat.ndim != 1:
        raise ShapeError(f"x_stat must be rank 1, got {x_stat.shape}")
    return SmoothScale(np.maximum(x_stat, DEFAULT_SCALE_FLOOR) ** r)


def fuse_into_predecessor(prev: RMSNorm | Linear, s: SmoothScale):
    """Fold division by `s` into the layer producing the smoothed activation.

    rmsnorm: gain -> gain / s. linear: output rows and bias divided by s.
    """
    if isinstance(prev, RMSNorm):
        return replace(prev, gain=prev.gain / s.values)
    if isinstance(prev, Linear):
        return replace(
            prev,
            weight=prev.weight / s.values[:, None],
            bias=prev.bias / s.values,
        )
    kind = type(prev).__name__.lower()
    raise ConfigError(f"cannot fuse a smoothing scale into a {kind} layer")

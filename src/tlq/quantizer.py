"""Symmetric round-to-nearest quantization and rounding-error statistics.

A rank-2 tensor is quantized row by row: each row gets one positive scale
s = max(absmax(row) / (2^(n-1) - 1), DEFAULT_SCALE_FLOOR) and integer codes
q = round(row / s) with round-half-away-from-zero. Rows are tokens for
per-token activation quantization and output channels for per-channel
weight quantization; the granularity field only records which orientation
the caller intends. The spacing between representable values of a row is
exactly its scale s.

`quantize` returns int32 codes for the artifact codec. Simulated
quantization (calibration, quantized forwards, error probes) instead calls
`_qdq_inplace`, which overwrites a float block with the bytes of
`dequantize(quantize(x))` without building the codes. Both share the scale
and rounding helpers below, so the rounding rule lives in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

DEFAULT_SCALE_FLOOR = 1e-12

GRANULARITIES = ("per_token", "per_channel")


@dataclass(frozen=True)
class QuantConfig:
    bits: int
    granularity: str = "per_token"

    def __post_init__(self):
        if not isinstance(self.bits, (int, np.integer)) or not 2 <= self.bits <= 16:
            raise ConfigError(f"bits must be an integer in [2, 16], got {self.bits!r}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"granularity must be one of {GRANULARITIES}, got {self.granularity!r}")

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    @property
    def qmin(self) -> int:
        return -(2 ** (self.bits - 1))


@dataclass(frozen=True)
class QuantizedTensor:
    q: np.ndarray  # int32 codes, same shape as the source
    scales: np.ndarray  # one positive scale per row
    config: QuantConfig


# rows per pass of _qdq_inplace are sized to keep its temporaries in cache
_QDQ_CHUNK_ELEMS = 1 << 15


def _scaled_magnitudes(x: np.ndarray, cfg: QuantConfig, out: np.ndarray | None = None):
    """Row scales s and |x| / s (written to `out` when given).

    |x| / s equals |x / s| bit for bit, since division by s > 0 is
    sign-symmetric, so the sign can be restored from x afterwards.
    """
    if x.ndim != 2:
        raise ShapeError(f"quantize expects a rank-2 tensor, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ShapeError(f"cannot quantize rows of length 0, got shape {x.shape}")
    t = np.abs(x, out=out)
    absmax = np.max(t, axis=1)
    # the row absmax is non-finite exactly when the row holds NaN or Inf
    if not np.all(np.isfinite(absmax)):
        raise NumericError("quantize input contains NaN or Inf")
    scales = np.maximum(absmax / cfg.qmax, DEFAULT_SCALE_FLOOR)
    t /= scales[:, None]
    return t, scales


def _signed_codes(t: np.ndarray, x: np.ndarray, cfg: QuantConfig, out: np.ndarray) -> None:
    """Codes from magnitudes t = |x| / s, into `out` (which may be t or x).

    Rounding is half away from zero (numpy's round() is half-to-even):
    floor(t + 0.5) on the magnitude, then the sign of x.
    """
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, x, out=out)
    np.clip(out, cfg.qmin, cfg.qmax, out=out)


def quantize(x: np.ndarray, cfg: QuantConfig) -> QuantizedTensor:
    """Row-wise symmetric quantization of a rank-2 tensor."""
    # integer input is quantized from its float64 values
    x = x.astype(np.result_type(x, 1.0), copy=False)
    t, scales = _scaled_magnitudes(x, cfg)
    _signed_codes(t, x, cfg, out=t)
    return QuantizedTensor(t.astype(np.int32), scales, cfg)


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct q * s; the result is within s/2 of the source elementwise."""
    if qt.q.ndim != 2 or qt.scales.shape != (qt.q.shape[0],):
        raise ShapeError(f"inconsistent quantized tensor: q {qt.q.shape}, scales {qt.scales.shape}")
    return qt.q * qt.scales[:, None]


def _qdq_inplace(x: np.ndarray, cfg: QuantConfig) -> None:
    """Overwrite rank-2 float64 `x` with the bytes of dequantize(quantize(x, cfg)).

    Works through blocks of whole rows with one cache-sized scratch buffer,
    so no temporary of x's size is allocated.
    """
    if x.ndim != 2:
        raise ShapeError(f"quantize expects a rank-2 tensor, got shape {x.shape}")
    rows = max(1, _QDQ_CHUNK_ELEMS // max(1, x.shape[1]))
    scratch = np.empty((min(rows, x.shape[0]), x.shape[1]))
    # one pass even for zero rows, so the shape checks still run
    for start in range(0, max(x.shape[0], 1), rows):
        block = x[start : start + rows]
        t, scales = _scaled_magnitudes(block, cfg, out=scratch[: block.shape[0]])
        _signed_codes(t, block, cfg, out=block)
        # a -0 code comes back as +0 through int32; adding +0 does the same
        block += 0.0
        block *= scales[:, None]


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
helper below, and each states its rounding once.

Two steps work on the float's bits, as 64-bit unsigned integers.
The row absmax is the integer max of |x|: with the sign bit clear, bit
order is value order, and a NaN sorts above +inf, so a non-finite row still
shows. `_qdq_inplace` scales the rounded magnitude, |q| * s, and ORs it under
x's sign bit; rounding is sign-symmetric, so these are the bytes of
copysign(q, x) * s. No clip is needed: s >= fl(absmax / qmax) gives
|x| / s <= qmax * (1 + 2u) for unit roundoff u (qmax exactly at the scale
floor), so |q| <= qmax whenever 2u * qmax < 1/2, as for float64 at every
allowed bit width.
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


@dataclass(frozen=True)
class QuantizedTensor:  # its bit width is stated once, by its artifact's `QuantizedStack.bits_w`
    q: np.ndarray  # int32 codes, same shape as the source
    scales: np.ndarray  # one positive scale per row


# rows per pass of _qdq_inplace are sized to keep its temporaries in cache
_QDQ_CHUNK_ELEMS = 1 << 15


def _scaled_magnitudes(x: np.ndarray, cfg: QuantConfig, out: np.ndarray | None = None):
    """Row scales s and |x| / s (written to `out` when given).

    |x| / s equals |x / s| bit for bit, since division by s > 0 is
    sign-symmetric, so the sign can be restored from x afterwards.
    """
    if x.dtype != np.float64:  # the bit steps below read x as 64-bit words
        raise NumericError(f"quantize needs float64 input, got {x.dtype}")
    if x.ndim != 2:
        raise ShapeError(f"quantize expects a rank-2 tensor, got shape {x.shape}")
    if x.shape[1] == 0:
        raise ShapeError(f"cannot quantize rows of length 0, got shape {x.shape}")
    t = np.abs(x, out=out)
    # the sign bit of |x| is clear, so its bits sort as its values, NaN last
    absmax = np.max(t.view(np.uint64), axis=1).view(np.float64)
    # the row absmax is non-finite exactly when the row holds NaN or Inf
    if not np.all(np.isfinite(absmax)):
        raise NumericError("quantize input contains NaN or Inf")
    scales = np.maximum(absmax / cfg.qmax, DEFAULT_SCALE_FLOOR)
    t /= scales[:, None]
    return t, scales


def quantize(x: np.ndarray, cfg: QuantConfig) -> QuantizedTensor:
    """Row-wise symmetric quantization of a rank-2 float64 tensor."""
    t, scales = _scaled_magnitudes(x, cfg)
    # half away from zero (numpy's round() is half-to-even): round the
    # magnitude, then take the sign of x; int32 turns a -0 code into 0
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, x, out=t)
    return QuantizedTensor(t.astype(np.int32), scales)


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
    scratch = np.empty((min(rows, x.shape[0]), x.shape[1]), dtype=x.dtype)
    sign = np.uint64(1 << 63)
    # one pass even for zero rows, so the shape checks still run
    for start in range(0, max(x.shape[0], 1), rows):
        block = x[start : start + rows]
        t, scales = _scaled_magnitudes(block, cfg, out=scratch[: block.shape[0]])
        # |q| * s, rounded half away from zero as in quantize
        t += 0.5
        np.floor(t, out=t)
        t *= scales[:, None]
        # x's sign bit over the magnitude's bits: copysign(q, x) * s
        bits = block.view(np.uint64)
        bits &= sign
        bits |= t.view(np.uint64)
        # a zero code under a negative x is -0 here and +0 through int32
        block += 0.0

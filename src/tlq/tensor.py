"""A seeded random source and a shape-checked matmul.

`Rng` and `rand_normal` give the fixtures and the heatmap's token subsample
the same draws for the same seed on every run. `matmul` is the product of
the full-precision linear and its backward. Both are pure: inputs are never
mutated and results are freshly allocated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Rng:
    """Deterministic counter-based (Philox) random source.

    The same (seed, stream) pair yields bit-identical draws across runs and
    platforms, and `split` derives statistically independent substreams from
    one seed, so fixture generators and workers can share a single user seed.
    """

    seed: int
    stream: int = 0

    def split(self, tag: int | str) -> "Rng":
        mixed = hashlib.blake2b(
            f"{self.stream}/{tag}".encode("utf-8"), digest_size=8
        ).digest()
        return Rng(self.seed, int.from_bytes(mixed, "little"))

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    shape = tuple(int(d) for d in shape)
    if not 1 <= len(shape) <= 3:
        raise ShapeError(f"rank must be 1..3, got shape {shape}")
    if any(d < 0 for d in shape):
        raise ShapeError(f"negative dimension in shape {shape}")
    return shape


def rand_normal(rng: Rng, shape: Sequence[int]) -> np.ndarray:
    """Standard normal tensor, deterministic for a fixed (rng, shape)."""
    return rng.generator().normal(0.0, 1.0, size=_check_shape(shape))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of a rank-2 or rank-3 `a` with a rank-2 `b`, with explicit shape validation.

    A rank-3 `a` is a stack of matrices, and numpy runs one gemm per slice:
    for a C-contiguous `a` each slice has the bytes of a rank-2 call on it.
    A flattened (k*N, C) product does not keep those bytes.
    """
    if a.ndim not in (2, 3) or b.ndim != 2:
        raise ShapeError(f"matmul needs a rank-2 or rank-3 left and a rank-2 right input, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


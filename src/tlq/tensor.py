"""Dense numeric core shared by every other module.

Values are plain numpy float64 ndarrays of rank 1 to 3, row major.
Functions here are pure: inputs are never mutated and results are freshly
allocated. The package's one in-place numeric kernel lives elsewhere:
`quantizer._qdq_inplace` overwrites its rank-2 argument, and its callers
always hand it a freshly computed array.
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


def rand_normal(
    rng: Rng, shape: Sequence[int], mean: float = 0.0, std: float = 1.0
) -> np.ndarray:
    """Normal(mean, std) tensor, deterministic for a fixed (rng, shape)."""
    shape = _check_shape(shape)
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    return rng.generator().normal(mean, std, size=shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two rank-2 arrays with explicit shape validation."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 inputs, got {a.shape} x {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


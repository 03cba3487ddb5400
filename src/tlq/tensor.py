"""A seeded random source and the matmul of the full-precision linear.

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


def rand_normal(rng: Rng, shape: Sequence[int]) -> np.ndarray:
    """Standard normal tensor, deterministic for a fixed (rng, shape)."""
    return rng.generator().normal(0.0, 1.0, size=shape)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of a rank-2 or rank-3 `a` with a rank-2 `b`.

    Both callers pass a linear's own weight against an input of its width
    (the stack's width walk and `_check_input` check it). A rank-3 `a` is a
    stack of matrices, and numpy runs one gemm per slice: for a C-contiguous
    `a` each slice has the bytes of a rank-2 call on it. A flattened (k*N, C)
    product does not keep those bytes.
    """
    return a @ b


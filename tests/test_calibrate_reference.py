"""`calibrate` against the one-sample-at-a-time reference calibrator, byte for byte.

The shapes sit on both sides of the grid-search pool rule and of the
sample-block boundaries; the CPU count is pinned to 2 so that the pool
side runs two threads on any host.
"""

import itertools

import numpy as np
import pytest

from conftest import random_block_stack
from helpers import calibrate_per_sample
from tlq import calibration
from tlq.calibration import STAT_MODES, STRATEGIES, RatioGrid, _search_threads, calibrate, result_to_text
from tlq.model import _block_samples
from tlq.quantizer import _QDQ_CHUNK_ELEMS, QuantConfig
from tlq.tensor import Rng, rand_normal

# (B, N, C): blocks per batch and which side of the pool rule each shape is on
SHAPES = {
    "pool-blocks": (130, 16, 32),  # blocks of 64, 64 and 2 samples; pooled
    "pool-big-sample": (3, 5500, 6),  # a sample above _QDQ_CHUNK_ELEMS, one per block; pooled
    "order-blocks": (13, 16, 160),  # blocks of 12 and 1; the gemm is above POOL_MAX_GEMM
    "order-big-sample": (3, 260, 128),  # a sample above _QDQ_CHUNK_ELEMS; one thread
}
GRID = RatioGrid(0.0, 1.0, 0.25)


def _cases():
    """Every strategy and stat mode on the two many-block shapes, and a cycle of them on the other two.

    Activations alternate relu and silu, and the bit widths run through 2 to 16.
    """
    combos = list(itertools.product(STRATEGIES, STAT_MODES))
    shapes = [(shape, combo) for shape in ("pool-blocks", "order-blocks") for combo in combos]
    shapes += [(shape, combos[i * 5 % len(combos)]) for i, shape in enumerate(("pool-big-sample", "order-big-sample"))]
    for i, (shape, (strategy, stat_mode)) in enumerate(shapes):
        yield pytest.param(shape, strategy, stat_mode, ("relu", "silu")[i % 2], 2 + i % 15, 16 - i % 15,
                           id=f"{shape}-{strategy}-{stat_mode}")


def test_the_shapes_lie_where_they_are_named(monkeypatch):
    monkeypatch.setattr(calibration, "_usable_cpus", lambda: 2)
    for name, (b, n, c) in SHAPES.items():
        xs = np.empty((b, n, c))
        assert (_search_threads(5, xs, c) > 1) == name.startswith("pool")
        assert (n * c > _QDQ_CHUNK_ELEMS) == name.endswith("big-sample")
        assert b % _block_samples(xs) != 0 or _block_samples(xs) == 1


@pytest.mark.parametrize("shape, strategy, stat_mode, act, bits_w, bits_a", _cases())
def test_calibrate_has_the_bytes_of_the_per_sample_reference(monkeypatch, shape, strategy, stat_mode, act, bits_w, bits_a):
    monkeypatch.setattr(calibration, "_usable_cpus", lambda: 2)
    b, n, c = SHAPES[shape]
    stack = random_block_stack(b * n + c, 2, c, act)
    xs = rand_normal(Rng(c), (b, n, c))
    xs[:, :, :2] *= 20.0  # outlier channels give the curve a basin
    opts = dict(strategy=strategy, stat_mode=stat_mode, grid=GRID,
                cfg_w=QuantConfig(bits_w, "per_channel"), cfg_a=QuantConfig(bits_a, "per_token"))
    got = result_to_text(calibrate(stack, xs, **opts))
    assert got == result_to_text(calibrate_per_sample(stack, xs, **opts))

import numpy as np
import pytest

from helpers import rand_uniform
from tlq.tensor import (
    Rng,
    matmul,
    rand_normal,
)


def test_matmul_identity_exact():
    a = rand_normal(Rng(1), (5, 5))
    eye = np.eye(5)
    assert np.array_equal(matmul(eye, a), a)
    assert np.array_equal(matmul(a, eye), a)


def test_matmul_hand_case():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0], [6.0]])
    assert np.array_equal(matmul(a, b), [[17.0], [39.0]])


def test_matmul_matches_triple_loop_oracle():
    a = rand_normal(Rng(7).split("a"), (7, 5))
    b = rand_normal(Rng(7).split("b"), (5, 3))
    oracle = np.zeros((7, 3))
    for i in range(7):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += a[i, k] * b[k, j]
            oracle[i, j] = acc
    got = matmul(a, b)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_matmul_of_mismatched_inner_dimensions_raises():
    # both library callers pass a linear's own weight; a direct misuse still raises numpy's error
    with pytest.raises(ValueError):
        matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matmul(np.zeros((4, 2, 3)), np.zeros((2, 3)))


def test_bad_shapes_rejected():
    with pytest.raises(ValueError):
        rand_normal(Rng(1), (-1, 4))
    with pytest.raises(ValueError):
        rand_uniform(Rng(1), (-1, 4))


def test_rand_deterministic_per_seed():
    assert np.array_equal(rand_uniform(Rng(42), (6, 7)), rand_uniform(Rng(42), (6, 7)))
    assert not np.array_equal(rand_uniform(Rng(42), (6, 7)), rand_uniform(Rng(43), (6, 7)))


def test_rand_split_streams_are_independent():
    base = Rng(5)
    a = rand_normal(base.split("alpha"), (8,))
    b = rand_normal(base.split("beta"), (8,))
    assert not np.array_equal(a, b)
    # re-deriving the same stream reproduces it
    assert np.array_equal(a, rand_normal(Rng(5).split("alpha"), (8,)))


def test_uniform_moments():
    u = rand_uniform(Rng(11), (1_000_000,))
    assert abs(u.mean() - 0.5) < 0.002
    v = rand_uniform(Rng(12), (1_000_000,), -1.0, 1.0)
    assert abs(v.var() - 1.0 / 3.0) < 0.02 / 3.0


def test_operations_do_not_mutate_inputs():
    a = rand_normal(Rng(2), (4, 4))
    b = rand_normal(Rng(3), (4, 4))
    a0, b0 = a.copy(), b.copy()
    matmul(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)

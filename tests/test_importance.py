import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_block_stack, single_linear_stack
from helpers import unit_scale
from tlq.calibration import layer_stat
from tlq.errors import ConfigError, ShapeError
from tlq.importance import (
    activation_error_probe,
    select_top_tokens,
    token_importance_sums,
)
from tlq.model import backward_from_trace, forward_fp
from tlq.quantizer import QuantConfig
from tlq.tensor import Rng, rand_normal


def _sums(grads):
    """Importance sums of one-entry traces, one trace per sample."""
    return token_importance_sums((g,) for g in grads)[0]


def test_token_importance_hand_case():
    assert np.array_equal(_sums([np.array([[1.0, -1.0], [0.0, 0.0]])]), [1.0, 0.0])


def test_token_importance_zero_gradients():
    assert np.array_equal(_sums([np.zeros((3, 4)), np.zeros((3, 4))]), np.zeros(3))


def test_token_importance_batch_order_invariant():
    grads = [rand_normal(Rng(i), (5, 3)) for i in range(4)]
    assert np.allclose(_sums(grads), _sums(list(reversed(grads))), rtol=1e-15)


def test_token_importance_sums_every_entry_in_sample_order():
    traces = [(rand_normal(Rng(i), (5, 3)), rand_normal(Rng(10 + i), (5, 2))) for i in range(3)]
    sums = token_importance_sums(iter(traces))
    assert len(sums) == 2
    for entry, got in enumerate(sums):
        want = np.zeros(5)
        for gt in traces:
            want += np.mean(np.abs(gt[entry]), axis=1)
        assert got.tobytes() == want.tobytes()


def test_token_importance_rejects_empty_batch():
    with pytest.raises(ShapeError):
        token_importance_sums([])


def test_token_importance_rejects_ragged_batch():
    with pytest.raises(ShapeError, match="inconsistent"):
        _sums([np.zeros((3, 4)), np.zeros((2, 4))])


def test_select_top_tokens_hand_case():
    assert select_top_tokens(np.array([3.0, 1.0, 4.0, 2.0]), 0.5) == (0, 2)


def test_select_top_tokens_full_fraction():
    assert select_top_tokens(np.array([3.0, 1.0, 4.0]), 1.0) == (0, 1, 2)


def test_select_top_tokens_tie_break_prefers_low_index():
    assert select_top_tokens(np.ones(6), 0.5) == (0, 1, 2)


def test_select_top_tokens_small_selection_warns():
    with pytest.warns(UserWarning):
        sel = select_top_tokens(np.array([1.0, 2.0]), 0.1)
    assert len(sel) == 1


@given(st.permutations(list(range(5))))
def test_selection_invariant_under_batch_permutation(order):
    grads = [rand_normal(Rng(100 + i), (6, 4)) for i in range(5)]
    base = select_top_tokens(_sums(grads))
    perm = select_top_tokens(_sums([grads[i] for i in order]))
    assert base == perm


def _stat(x, mode, sel=None):
    """layer_stat of a (B, N, C) batch; only the sqrt mode reads the layer's weight."""
    return layer_stat(x, mode, single_linear_stack(0, x.shape[-1], 2).layers[0], sel)


def test_x_stat_full_selection_equals_absmax_baseline():
    x = rand_normal(Rng(8), (4, 6, 5))
    sel = tuple(range(6))
    assert np.array_equal(_stat(x, "topk", sel), _stat(x, "max"))


def test_x_stat_single_token():
    x = rand_normal(Rng(9), (1, 5, 4))
    sel = (2,)
    assert np.array_equal(_stat(x, "topk", sel), np.abs(x[0, 2]))


def test_x_stat_matches_mask_oracle():
    x = rand_normal(Rng(10), (3, 8, 6))
    sel = (1, 4, 5)
    want = np.zeros(6)
    for c in range(6):
        best = 0.0
        for b in range(3):
            for n in sel:
                best = max(best, abs(x[b, n, c]))
        want[c] = best
    assert np.array_equal(_stat(x, "topk", sel), want)


def test_x_stat_rejects_empty_or_invalid_selection():
    x = rand_normal(Rng(11), (1, 4, 3))
    with pytest.raises(ShapeError):
        _stat(x, "topk", ())
    with pytest.raises(ShapeError):
        _stat(x, "topk", (9,))
    with pytest.raises(ShapeError):  # would index the last token
        _stat(x, "topk", (-1,))


def test_baselines_constant_tensor():
    x = np.full((1, 3, 4), 2.5)
    assert np.array_equal(_stat(x, "max"), np.full(4, 2.5))
    assert np.array_equal(_stat(x, "mean"), np.full(4, 2.5))


def test_baselines_hand_case():
    x = np.array([[[1.0], [3.0]]])
    assert _stat(x, "max")[0] == 3.0
    assert _stat(x, "mean")[0] == 2.0
    with pytest.raises(ConfigError):
        _stat(x, "median")


@given(
    arrays(np.float64, (3, 6, 4), elements=st.floats(-50, 50, allow_nan=False)),
    st.sets(st.integers(0, 5), min_size=1, max_size=6),
)
@settings(max_examples=50)
def test_restricted_stat_never_exceeds_full_max(x, idx):
    sel = tuple(sorted(idx))
    assert np.all(_stat(x, "topk", sel) <= _stat(x, "max"))


def test_estimate_accuracy_improves_with_bits():
    stack = random_block_stack(12, 1, 8)
    trace = forward_fp(stack, rand_normal(Rng(13), (6, 8))[None])
    grads = backward_from_trace(stack, trace)
    devs = []
    for bits in (4, 6, 8):
        probes = activation_error_probe(stack, trace, grads, {"lin0": unit_scale(8)}, QuantConfig(bits, "per_token"))
        est, meas = (float(v[0]) for v in probes["lin0"])
        devs.append(abs(est - meas) / abs(meas))
    assert devs[0] > devs[1] > devs[2]

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_smoothing, rand_uniform, unit_scale
from tlq.calibration import CalibrationResult, LayerCalibration, RatioGrid, layer_stat, result_to_text, scale_for
from tlq.errors import ConfigError, NumericError
from tlq.layers import Activation, Linear, RMSNorm
from tlq.model import apply_layer_fp
from tlq.quantizer import DEFAULT_SCALE_FLOOR
from tlq.smoothing import SmoothScale, fuse_into_predecessor, power_scale
from tlq.tensor import Rng, rand_normal


def _sqrt_stat(x, w):
    """layer_stat's sqrt mode on one (N, C) sample and a linear with weight w."""
    return layer_stat(np.asarray(x)[None], "sqrt", Linear("lin", np.asarray(w), np.zeros(len(w))))


def test_sqrt_scale_symmetric_inputs_give_ones():
    v = np.array([[1.0, 2.0, 7.5]])
    assert np.allclose(_sqrt_stat(v, v), 1.0)


def test_sqrt_scale_hand_case():
    s = scale_for("sqrt", _sqrt_stat([[4.0]], [[1.0]]), 1.0)
    assert s.values[0] == pytest.approx(2.0, rel=1e-15)
    row = LayerCalibration("lin", s, 1.0, ((1.0, 0.0),))
    text = result_to_text(CalibrationResult((row,), "none", "sqrt", 4, 8, 0.5, RatioGrid(1.0, 1.0)))
    assert "\norigin sqrt_baseline\n" in text


def test_sqrt_scale_dead_channel_floors():
    assert _sqrt_stat([[0.0]], [[1.0]])[0] > 0
    # a zero weight column: max|W| is floored too, so the scale stays finite
    assert _sqrt_stat([[2.0, 1.0]], [[1.0, 0.0]])[1] == np.sqrt(1.0 / DEFAULT_SCALE_FLOOR)


def test_power_scale_endpoints_and_hand_case():
    stat = np.array([4.0, 9.0])
    assert np.array_equal(power_scale(stat, 0.0).values, [1.0, 1.0])
    assert np.array_equal(power_scale(stat, 1.0).values, stat)
    assert np.allclose(power_scale(stat, 0.5).values, [2.0, 3.0], rtol=1e-15)


def test_power_scale_rejects_out_of_range_ratio():
    for r in (-0.1, 1.1):
        with pytest.raises(ConfigError):
            power_scale(np.ones(2), r)


def test_smooth_scale_validation():
    with pytest.raises(NumericError):
        SmoothScale(np.array([1.0, 0.0]))
    with pytest.raises(NumericError):
        SmoothScale(np.array([1.0, np.inf]))


def test_apply_smoothing_identity_scale():
    x = rand_normal(Rng(1), (4, 3))
    w = rand_normal(Rng(2), (5, 3))
    xs, ws = apply_smoothing(x, w, unit_scale(3))
    assert np.array_equal(xs, x) and np.array_equal(ws, w)


def test_apply_smoothing_hand_case():
    xs, ws = apply_smoothing(
        np.array([[4.0]]), np.array([[3.0]]), SmoothScale(np.array([2.0]))
    )
    assert xs[0, 0] == 2.0 and ws[0, 0] == 6.0
    assert xs @ ws.T == pytest.approx(12.0)


def test_apply_smoothing_preserves_product():
    x = rand_normal(Rng(3), (8, 4))
    w = rand_normal(Rng(4), (6, 4))
    s = SmoothScale(rand_uniform(Rng(5), (4,), 0.1, 10.0))
    xs, ws = apply_smoothing(x, w, s)
    ref = x @ w.T
    assert np.max(np.abs(xs @ ws.T - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_smoothing_balances_absmax():
    x = rand_normal(Rng(6), (12, 5)) * np.array([1.0, 10.0, 0.3, 4.0, 2.0])
    w = rand_normal(Rng(7), (7, 5))
    x_absmax = np.max(np.abs(x), axis=0)
    w_absmax = np.max(np.abs(w), axis=0)
    s = SmoothScale(_sqrt_stat(x, w))
    xs, ws = apply_smoothing(x, w, s)
    target = np.sqrt(x_absmax * w_absmax)
    assert np.allclose(np.max(np.abs(xs), axis=0), target, rtol=1e-10)
    assert np.allclose(np.max(np.abs(ws), axis=0), target, rtol=1e-10)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=50)
def test_power_scale_monotone_in_ratio(r1, r2):
    lo, hi = sorted((r1, r2))
    stat = np.array([0.01, 0.5, 1.0, 3.0, 42.0])
    a, b = power_scale(stat, lo).values, power_scale(stat, hi).values
    assert np.all(b[stat > 1.0] >= a[stat > 1.0])
    assert np.all(b[stat < 1.0] <= a[stat < 1.0])


def _explicit_division_output(pre, lin, s, x):
    h = apply_layer_fp(pre, x) / s.values
    return apply_layer_fp(lin, h)


def test_fuse_into_rmsnorm_matches_explicit_division():
    rng = Rng(11)
    pre = RMSNorm("norm", rand_uniform(rng.split("g"), (5,), 0.5, 2.0), 1e-6)
    lin = Linear("lin", rand_normal(rng.split("w"), (4, 5)), np.zeros(4))
    s = SmoothScale(rand_uniform(rng.split("s"), (5,), 0.2, 5.0))
    x = rand_normal(rng.split("x"), (6, 5))
    fused = fuse_into_predecessor(pre, s)
    want = _explicit_division_output(pre, lin, s, x)
    got = apply_layer_fp(lin, apply_layer_fp(fused, x))
    assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1e-30)


def test_fuse_unit_scale_is_identity():
    pre = RMSNorm("norm", np.array([1.0, 2.0]), 1e-6)
    fused = fuse_into_predecessor(pre, unit_scale(2))
    assert np.array_equal(fused.gain, pre.gain)


def test_fuse_into_linear_matches_explicit_division():
    rng = Rng(12)
    pre = Linear("pre", rand_normal(rng.split("wp"), (5, 3)), rand_normal(rng.split("bp"), (5,)))
    lin = Linear("lin", rand_normal(rng.split("w"), (4, 5)), np.zeros(4))
    s = SmoothScale(rand_uniform(rng.split("s"), (5,), 0.2, 5.0))
    x = rand_normal(rng.split("x"), (6, 3))
    fused = fuse_into_predecessor(pre, s)
    assert np.allclose(fused.weight, pre.weight / s.values[:, None])
    assert np.allclose(fused.bias, pre.bias / s.values)
    want = _explicit_division_output(pre, lin, s, x)
    got = apply_layer_fp(lin, apply_layer_fp(fused, x))
    assert np.max(np.abs(got - want)) <= 1e-10 * max(np.max(np.abs(want)), 1e-30)


def test_fuse_rejects_activation_predecessor():
    with pytest.raises(ConfigError, match="activation"):
        fuse_into_predecessor(Activation("act", "relu"), unit_scale(4))

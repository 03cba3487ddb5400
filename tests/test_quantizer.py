import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import rand_uniform, rounding_error_stats
from tlq.errors import ConfigError, NumericError, ShapeError
from tlq.quantizer import (
    DEFAULT_SCALE_FLOOR,
    QuantConfig,
    _qdq_inplace,
    dequantize,
    quantize,
)
from tlq.tensor import Rng

ROWS = st.integers(1, 6)


def test_int8_integer_range():
    cfg = QuantConfig(8)
    assert (-(cfg.qmax + 1), cfg.qmax) == (-128, 127)


def test_config_validation():
    for bits in (1, 17, 2.5):
        with pytest.raises(ConfigError):
            QuantConfig(bits)
    with pytest.raises(ConfigError):
        QuantConfig(8, granularity="per_row")


def test_zero_row_uses_scale_floor():
    cfg = QuantConfig(8)
    qt = quantize(np.zeros((2, 4)), cfg)
    assert np.array_equal(qt.q, np.zeros((2, 4), dtype=np.int32))
    assert np.all(qt.scales == DEFAULT_SCALE_FLOOR)
    assert np.array_equal(dequantize(qt), np.zeros((2, 4)))


def test_hand_case_n4():
    qt = quantize(np.array([[-1.0, 0.5, 1.0]]), QuantConfig(4))
    assert qt.scales[0] == pytest.approx(1.0 / 7.0, rel=1e-15)
    # 0.5 / (1/7) = 3.5 rounds away from zero to 4
    assert np.array_equal(qt.q, [[-7, 4, 7]])


def test_quantize_rejects_bad_input():
    with pytest.raises(NumericError):
        quantize(np.array([[np.nan, 1.0]]), QuantConfig(8))
    with pytest.raises(ShapeError):
        quantize(np.zeros(4), QuantConfig(8))


def test_quantize_accepts_integer_input():
    x = np.array([[-3, 0, 5], [7, -7, 1]])
    got = quantize(x, QuantConfig(4))
    want = quantize(x.astype(np.float64), QuantConfig(4))
    assert np.array_equal(got.q, want.q) and got.scales.tobytes() == want.scales.tobytes()


def test_grid_multiples_roundtrip_exactly():
    # rows whose values are integer multiples of their own pitch absmax/qmax
    cfg = QuantConfig(6)
    scale = 0.125
    q = np.array([[-31, -3, 0, 7, 31], [31, 2, 3, 4, 5]], dtype=float)
    x = q * scale
    qt = quantize(x, cfg)
    assert np.array_equal(dequantize(qt), x)


def test_dequantize_error_bounded_by_half_pitch():
    x = rand_uniform(Rng(8), (32, 16), -3.0, 3.0)
    qt = quantize(x, QuantConfig(8))
    err = np.abs(dequantize(qt) - x)
    bound = qt.scales[:, None] / 2 * (1 + 1e-12)
    assert np.all(err <= bound)


def test_error_variance_matches_uniform_law():
    x = rand_uniform(Rng(21), (1000, 1000), -1.0, 1.0)
    stats = rounding_error_stats(x, QuantConfig(8))
    assert abs(stats.variance - stats.predicted_variance) <= 0.05 * stats.predicted_variance


def test_grid_aligned_input_has_zero_error():
    q = np.arange(-7, 8, dtype=float).reshape(1, -1)
    stats = rounding_error_stats(q * 0.25, QuantConfig(4))
    assert stats.mean == 0.0
    assert stats.variance == 0.0


def test_variance_ratio_tracks_bit_scaling():
    x = rand_uniform(Rng(22), (500, 1000), -1.0, 1.0)
    v6 = rounding_error_stats(x, QuantConfig(6)).variance
    v8 = rounding_error_stats(x, QuantConfig(8)).variance
    # two extra bits quarter the pitch, so variance shrinks ~16x
    assert v6 / v8 == pytest.approx(16.0, rel=0.10)


def test_error_mean_is_centered():
    x = rand_uniform(Rng(23), (500, 500), -2.0, 2.0)
    stats = rounding_error_stats(x, QuantConfig(6))
    mean_pitch = np.sqrt(stats.predicted_variance * 12.0)
    assert abs(stats.mean) <= 0.01 * mean_pitch


@given(arrays(np.float64, (3, 5), elements=st.floats(-100, 100, allow_nan=False)))
@settings(max_examples=60)
def test_sign_symmetry(x):
    cfg = QuantConfig(5)
    assert np.array_equal(quantize(-x, cfg).q, -quantize(x, cfg).q)


@given(st.integers(-6, 6))
def test_scale_invariance_power_of_two(exp):
    c = 2.0**exp
    x = rand_uniform(Rng(31), (4, 6), -5.0, 5.0)
    cfg = QuantConfig(6)
    base = quantize(x, cfg)
    scaled = quantize(c * x, cfg)
    assert np.array_equal(base.q, scaled.q)
    assert np.allclose(scaled.scales, c * base.scales, rtol=1e-12)


def test_scale_invariance_generic_positive_factor():
    x = rand_uniform(Rng(32), (8, 12), -2.0, 2.0)
    cfg = QuantConfig(6)
    base = quantize(x, cfg)
    scaled = quantize(3.7 * x, cfg)
    assert np.array_equal(base.q, scaled.q)
    assert np.allclose(scaled.scales, 3.7 * base.scales, rtol=1e-12)


def test_codes_stay_in_range():
    for bits in (2, 3, 8, 16):
        cfg = QuantConfig(bits)
        x = rand_uniform(Rng(bits), (10, 20), -7.0, 7.0)
        qt = quantize(x, cfg)
        assert qt.q.min() >= -cfg.qmax and qt.q.max() <= cfg.qmax


# --- in-place quantize-dequantize kernel ---------------------------------------


def _unclipped_codes(x, cfg):
    # the textbook rule, written independently of the quantizer's helpers
    scales = np.maximum(np.max(np.abs(x), axis=1) / cfg.qmax, DEFAULT_SCALE_FLOOR)
    t = x / scales[:, None]
    return np.copysign(np.floor(np.fabs(t) + 0.5), t), scales


def _reference_codes(x, cfg):
    q, scales = _unclipped_codes(x, cfg)
    return np.clip(q, -(cfg.qmax + 1), cfg.qmax).astype(np.int32), scales


@st.composite
def _qdq_case(draw):
    bits = draw(st.one_of(st.sampled_from((2, 16)), st.integers(2, 16)))
    qmax = 2 ** (bits - 1) - 1
    cols = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("floats", "ties", "zeros", "one_hot", "tiny_negative", "extremes")))
        if kind == "floats":
            row = draw(st.lists(st.floats(-1e6, 1e6), min_size=cols, max_size=cols))
        elif kind == "ties":
            # pitch s = 2^e is exact, so every (k + 0.5) * s lands on a .5 tie
            s = 2.0 ** draw(st.integers(-8, 8))
            ks = draw(st.lists(st.integers(-qmax, qmax - 1), min_size=cols - 1, max_size=cols - 1))
            row = [qmax * s] + [(k + 0.5) * s for k in ks]
        elif kind == "zeros":
            row = [draw(st.sampled_from((0.0, -0.0)))] * cols
        elif kind == "one_hot":
            row = [0.0] * cols
            row[draw(st.integers(0, cols - 1))] = draw(st.floats(-1e3, 1e3))
        elif kind == "tiny_negative":
            # with scale 1/qmax these round to a -0 code, which int32 makes +0
            row = [1.0] + [-draw(st.floats(1e-300, 0.49 / qmax)) for _ in range(cols - 1)]
        else:
            # +-absmax in several positions; the two smallest put the row on
            # the scale floor, the second just under absmax = qmax * floor
            m = draw(st.sampled_from((1e-300, np.nextafter(qmax * DEFAULT_SCALE_FLOOR, 0.0), 1.0, 1e300)))
            row = [m * draw(st.floats(-1.0, 1.0)) for _ in range(cols)]
            for i in draw(st.sets(st.integers(0, cols - 1), min_size=1)):
                row[i] = draw(st.sampled_from((m, -m)))
        rows.append(row)
    return np.array(rows, dtype=np.float64), QuantConfig(bits)


@given(_qdq_case())
@settings(max_examples=300, deadline=None)
def test_qdq_inplace_is_bytewise_dequantize_of_quantize(case):
    x, cfg = case
    # the scale rule keeps every code in [-qmax, qmax] before any clip
    assert np.all(np.abs(_unclipped_codes(x, cfg)[0]) <= cfg.qmax)
    q_ref, scales_ref = _reference_codes(x, cfg)
    qt = quantize(x, cfg)
    assert np.array_equal(qt.q, q_ref)
    assert qt.scales.tobytes() == scales_ref.tobytes()
    expected = dequantize(qt)
    assert expected.tobytes() == (q_ref * scales_ref[:, None]).tobytes()
    got = x.copy()
    _qdq_inplace(got, cfg)
    assert got.tobytes() == expected.tobytes()


def test_qdq_inplace_turns_negative_zero_codes_positive():
    x = np.array([[1.0, -0.2, -0.0]])
    _qdq_inplace(x, QuantConfig(2))
    assert x.tobytes() == np.array([[1.0, 0.0, 0.0]]).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qdq_inplace_rejects_non_finite(bad):
    x = np.array([[1.0, 2.0], [3.0, bad]])
    with pytest.raises(NumericError):
        _qdq_inplace(x, QuantConfig(8))
    with pytest.raises(ShapeError):
        _qdq_inplace(np.zeros((2, 0)), QuantConfig(8))


@pytest.mark.parametrize("col", [0, -1])
@pytest.mark.parametrize("bad", [np.copysign(np.nan, -1.0), np.inf, -np.inf], ids=["-nan", "inf", "-inf"])
def test_non_finite_first_or_last_column_raises(bad, col):
    x = np.ones((3, 5))
    x[1, col] = bad
    with pytest.raises(NumericError):
        quantize(x, QuantConfig(8))
    with pytest.raises(NumericError):
        _qdq_inplace(x.copy(), QuantConfig(8))


def _strided_layouts(x):
    """x as a column-major array and as every other row of a wider array."""
    wide = np.zeros((2 * x.shape[0], x.shape[1] + 3))
    wide[::2, 1 : x.shape[1] + 1] = x
    return {"column_major": np.asfortranarray(x), "strided_rows": wide[::2, 1 : x.shape[1] + 1]}


@pytest.mark.parametrize("layout", ["column_major", "strided_rows"])
def test_non_contiguous_input_gives_the_bytes_of_its_c_order_copy(layout):
    # 1100 rows of 64 make three _qdq_inplace blocks, the last one partial
    x = rand_uniform(Rng(41), (1100, 64), -3.0, 3.0)
    x[::7] *= -1e-13  # rows on the scale floor
    x[5, :9] = -0.0
    view = _strided_layouts(x)[layout]
    assert not view.flags.c_contiguous and np.array_equal(view, x)
    cfg = QuantConfig(4)
    want, got = quantize(x, cfg), quantize(view, cfg)
    assert np.array_equal(got.q, want.q) and got.scales.tobytes() == want.scales.tobytes()
    want_bytes = x.copy()
    _qdq_inplace(want_bytes, cfg)
    _qdq_inplace(view, cfg)
    assert np.ascontiguousarray(view).tobytes() == want_bytes.tobytes()


@pytest.mark.parametrize("dtype, bits", [(np.float32, 2), (np.float32, 8), (np.float32, 16)])
def test_narrow_float_input_is_quantized_in_its_own_dtype(dtype, bits):
    # odd and even row lengths: a view wider than the dtype fails on both
    for cols in (7, 8):
        x = rand_uniform(Rng(cols), (9, cols), -5.0, 5.0).astype(dtype)
        x[2, 3] = -x[2].max() * 2  # a negative absmax
        cfg = QuantConfig(bits)
        q_ref, scales_ref = _reference_codes(x, cfg)
        assert scales_ref.dtype == dtype
        qt = quantize(x, cfg)
        assert np.array_equal(qt.q, q_ref) and qt.scales.tobytes() == scales_ref.tobytes()
        # q * s is exact in float64, so casting it rounds once, as the kernel does
        got = x.copy()
        _qdq_inplace(got, cfg)
        assert got.tobytes() == dequantize(qt).astype(dtype).tobytes()


@pytest.mark.parametrize("x, bits", [
    (np.zeros((1, 4), np.float16), 8),  # the 1e-12 scale floor underflows to 0: scale 0, code -2^31
    (np.array([[1.0, 0.99995, -0.5]], np.float16), 16),  # float16 cannot hold qmax: code 32768
], ids=["zero_row", "bits16"])
def test_quantize_refuses_float16_in_one_line(x, bits):
    with pytest.raises(ConfigError, match="^quantize needs float32 or float64 input, got float16$"):
        quantize(x, QuantConfig(bits))

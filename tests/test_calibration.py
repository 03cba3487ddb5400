import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_block_stack, reference_linear_quant, single_linear_stack
from helpers import forward_quantized
from tlq.calibration import (
    CalibrationWalk,
    WalkObserver,
    _batch_fp,
    _calibration_loop,
    RatioGrid,
    calibrate,
    gradient_pass_bytes,
    layer_loss,
    load_quantized,
    quantize_with_result,
    result_from_text,
    result_to_text,
    save_quantized,
    scales_from_result,
    search_ratio,
    select_ratio,
)
from tlq.distcal import baseline_peak
from tlq.errors import CheckpointError, ConfigError, NumericError, ShapeError
from tlq.fixtures import build_calibset, build_stack
from tlq.layers import Activation, LayerStack, Linear, RMSNorm
from tlq.model import ProxyLossSpec, apply_layer_fp, apply_linear_quant, forward_fp, forward_quant
from tlq.quantizer import _QDQ_CHUNK_ELEMS, QuantConfig
from tlq.smoothing import power_scale
from tlq.tensor import Rng, rand_normal

CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")


def test_ratio_grid_includes_endpoints():
    pts = RatioGrid(0.0, 1.0, 0.05).points()
    assert len(pts) == 21
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert RatioGrid(0.3, 0.3, 0.05).points() == (0.3,)


def test_ratio_grid_validation():
    with pytest.raises(ConfigError):
        RatioGrid(0.5, 0.4)
    with pytest.raises(ConfigError):
        RatioGrid(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        RatioGrid(-0.1, 1.0)


def test_ratio_grid_size_is_bounded():
    assert len(RatioGrid(0.0, 1.0, 0.01).points()) == 101
    assert len(RatioGrid(0.0, 1.0, 0.001).points()) == 1001
    assert len(RatioGrid(0.0, 0.5, 0.0005).points()) == 1001
    for step in (0.0009999, 1e-7, 5e-324):  # 1002 points, 10^7 points, an infinite count
        with pytest.raises(ConfigError, match="at most 1001"):
            RatioGrid(0.0, 1.0, step)
    assert RatioGrid(0.4, 0.4, 1e-7).points() == (0.4,)


def test_layer_loss_cases():
    assert layer_loss(np.ones((1, 2, 3)), np.ones((1, 2, 3))) == 0.0
    assert layer_loss(np.array([[[1.0, 1.0]]]), np.array([[[0.0, 0.0]]])) == 2.0
    a = rand_normal(Rng(1), (2, 3, 4))
    b = rand_normal(Rng(2), (2, 3, 4))
    want = float(np.mean(np.sum((a - b) ** 2, axis=(1, 2))))
    assert layer_loss(a, b.copy()) == layer_loss(b, a.copy()) == want
    for y_fp, y_q in [
        (np.zeros((2, 2, 2)), np.zeros((2, 2, 3))),
        (np.zeros((2, 3)), np.zeros((2, 3))),  # one sample's (N, C) outputs are not a batch
        (np.zeros((1, 2, 2, 2)), np.zeros((1, 2, 2, 2))),
    ]:
        with pytest.raises(ShapeError):
            layer_loss(y_fp, y_q)


def test_layer_loss_batch_mean():
    y1 = np.stack([np.ones((2, 2)), np.zeros((2, 2))])
    y2 = np.zeros((2, 2, 2))
    # sample losses are 4 and 0, mean 2
    assert layer_loss(y1, y2.copy()) == 2.0
    assert layer_loss(y2, y1.copy()) == 2.0


def test_layer_loss_reads_y_fp_and_overwrites_y_q():
    y_fp = rand_normal(Rng(3), (3, 4, 5))
    y_q = rand_normal(Rng(4), (3, 4, 5))
    fp_before, squared = y_fp.copy(), (y_q - y_fp) ** 2
    layer_loss(y_fp, y_q)
    assert y_fp.tobytes() == fp_before.tobytes()
    assert y_q.tobytes() == squared.tobytes()  # the caller's y_q holds the squared difference


def test_select_ratio_prefers_smallest_among_ties():
    curve = [(0.0, 5.0), (0.25, 1.0), (0.5, 1.0 + 1e-15), (0.75, 1.0), (1.0, 2.0)]
    assert select_ratio(curve) == 0.25
    with pytest.raises(ConfigError):
        select_ratio([])


def _calib_inputs(seed, b, n, c):
    return rand_normal(Rng(seed), (b, n, c))


def _planted_layer(seed, c, outlier=50.0):
    lin = single_linear_stack(seed, c, c).layers[0]
    x = _calib_inputs(seed + 1, 4, 8, c)
    x[:, :, 0] *= outlier
    return lin, x


def conditioned_layer(seed, c=64, b=16, n=64, outliers=4):
    """Layer whose loss curve has a well-averaged basin (for bracket checks)."""
    lin = single_linear_stack(seed, c, c).layers[0]
    x = _calib_inputs(seed + 1, b, n, c)
    x[:, :, :outliers] *= 50.0
    return lin, x


def test_batch_quant_matches_per_sample_apply_linear_quant():
    lin, xs = _planted_layer(3, 6)
    scale = power_scale(np.max(np.abs(xs.reshape(-1, 6)), axis=0), 0.35)
    before = xs.copy()
    got = apply_linear_quant(lin, xs, scale, CFG_W, CFG_A)
    want = np.stack([reference_linear_quant(lin, xs[b], scale, CFG_W, CFG_A) for b in range(xs.shape[0])])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(xs, before)  # the inputs are copied, never overwritten
    # a column-major batch is read into the row-major sample block; its bytes must not change
    assert apply_linear_quant(lin, np.asfortranarray(xs), scale, CFG_W, CFG_A).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "b, n, c, block",
    [
        (11, 64, 64, 8),  # blocks of 8 samples, and a last block of 3
        (3, 128, 320, 1),  # one sample exceeds the block size, so each block holds one
    ],
)
def test_sample_blocks_keep_the_bytes_of_per_sample_quantization(b, n, c, block):
    assert max(1, _QDQ_CHUNK_ELEMS // (n * c)) == block
    lin = single_linear_stack(7, c, c).layers[0]
    xs = rand_normal(Rng(8), (b, n, c))
    xs[:, :, :2] *= 40.0
    scale = power_scale(np.max(np.abs(xs.reshape(-1, c)), axis=0), 0.5)
    got = apply_linear_quant(lin, xs, scale, CFG_W, CFG_A)
    want = np.stack([reference_linear_quant(lin, xs[i], scale, CFG_W, CFG_A) for i in range(b)])
    assert got.tobytes() == want.tobytes()


def test_batch_quant_returns_fresh_arrays():
    # queued y_q frames are held by reference, so no call may reuse a buffer
    lin, xs = _planted_layer(4, 6)
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    a = apply_linear_quant(lin, xs, power_scale(stat, 0.5), CFG_W, CFG_A)
    b = apply_linear_quant(lin, xs, power_scale(stat, 0.5), CFG_W, CFG_A)
    assert a is not b and not np.shares_memory(a, b)
    assert not np.shares_memory(a, xs)
    assert np.array_equal(a, b)


def test_search_ratio_curve_is_layer_loss_of_batch_outputs():
    lin, xs = _planted_layer(5, 6)
    fp_in = xs * 1.01
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    grid = RatioGrid(0.0, 1.0, 0.1)
    _, curve = search_ratio(lin, xs, fp_in, stat, grid, CFG_W, CFG_A)
    y_fp = _batch_fp(lin, fp_in)
    for r, loss in curve:
        assert loss == layer_loss(y_fp, apply_linear_quant(lin, xs, power_scale(stat, r), CFG_W, CFG_A))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_numeric_error(bad):
    lin, xs = _planted_layer(6, 6)
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    xs[1, 2, 3] = bad
    with pytest.raises(NumericError):
        apply_linear_quant(lin, xs, power_scale(stat, 0.5), CFG_W, CFG_A)
    with pytest.raises(NumericError):
        search_ratio(lin, xs, xs, stat, RatioGrid(), CFG_W, CFG_A)


def test_batch_kernels_reject_mismatched_shapes():
    lin, xs = _planted_layer(7, 6)
    stat = np.ones(6)
    with pytest.raises(ShapeError):
        apply_linear_quant(lin, xs, power_scale(np.ones(5), 0.5), CFG_W, CFG_A)
    with pytest.raises(ShapeError):
        apply_linear_quant(lin, xs[:, :, :5], power_scale(stat, 0.5), CFG_W, CFG_A)
    with pytest.raises(ShapeError):
        # one fp sample would otherwise broadcast against the whole q batch
        search_ratio(lin, xs, xs[:1], stat, RatioGrid(), CFG_W, CFG_A)


def test_search_ratio_matches_exhaustive_oracle():
    grid = RatioGrid()
    for seed in range(50):
        lin, xs = _planted_layer(seed, 6)
        stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
        r_star, curve = search_ratio(lin, xs, xs, stat, grid, CFG_W, CFG_A)
        # independent re-evaluation of every grid point
        best_r, best_loss = None, np.inf
        for r in grid.points():
            scale = power_scale(stat, r)
            losses = []
            for b in range(xs.shape[0]):
                y_fp = xs[b] @ lin.weight.T + lin.bias
                y_q = reference_linear_quant(lin, xs[b], scale, CFG_W, CFG_A)
                losses.append(np.sum((y_fp - y_q) ** 2))
            loss = float(np.mean(losses))
            if loss < best_loss * (1 - 1e-12):
                best_r, best_loss = r, loss
        assert r_star == best_r
        assert dict(curve)[r_star] == pytest.approx(best_loss, rel=1e-12)


def test_search_ratio_within_one_step_of_finer_grid():
    coarse = RatioGrid(0.0, 1.0, 0.05)
    fine = RatioGrid(0.0, 1.0, 0.01)
    for seed in range(8):
        lin, xs = conditioned_layer(seed)
        stat = np.max(np.abs(xs.reshape(-1, xs.shape[-1])), axis=0)
        r_c, _ = search_ratio(lin, xs, xs, stat, coarse, CFG_W, CFG_A)
        r_f, _ = search_ratio(lin, xs, xs, stat, fine, CFG_W, CFG_A)
        assert abs(r_c - r_f) <= 0.05 + 1e-9


def test_search_beats_unsmoothed_on_outlier_fixture():
    lin, xs = _planted_layer(7, 8)
    stat = np.max(np.abs(xs.reshape(-1, 8)), axis=0)
    r_star, curve = search_ratio(lin, xs, xs, stat, RatioGrid(), CFG_W, CFG_A)
    losses = dict(curve)
    assert losses[r_star] < losses[0.0]
    assert r_star > 0.0


def test_search_ratio_flat_curve_ties_to_smallest_r():
    lin, xs = _planted_layer(8, 6)
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    cfg16_w = QuantConfig(16, "per_channel")
    cfg16_a = QuantConfig(16, "per_token")
    r_star, curve = search_ratio(lin, xs, xs, stat, RatioGrid(), cfg16_w, cfg16_a)
    best = min(l for _, l in curve)
    ties = [r for r, l in curve if l <= best + abs(best) * 1e-12]
    assert r_star == ties[0]


def test_single_linear_stack_strategy_degeneracy():
    stack = single_linear_stack(9, 6, 5)
    xs = _calib_inputs(10, 3, 4, 6)
    results = [
        result_to_text(
            calibrate(stack, xs, strategy=s, stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
        )
        for s in ("none", "passact1", "passact2")
    ]
    # strategy metadata differs; layer rows must match exactly
    rows = [r.split("layers 1\n")[1] for r in results]
    assert rows[0] == rows[1] == rows[2]


def test_high_bit_calibration_reaches_fp():
    stack = random_block_stack(11, 2, 8)
    xs = _calib_inputs(12, 4, 6, 8)
    cfg_w = QuantConfig(16, "per_channel")
    cfg_a = QuantConfig(16, "per_token")
    for strategy in ("none", "passact1", "passact2"):
        res = calibrate(stack, xs, strategy=strategy, stat_mode="max", cfg_w=cfg_w, cfg_a=cfg_a)
        scales = scales_from_result(res)
        num = den = 0.0
        for b in range(xs.shape[0]):
            y_fp = forward_fp(stack, xs[b]).output
            y_q = forward_quant(stack, xs[b], scales, cfg_w, cfg_a).output
            num += float(np.sum((y_fp - y_q) ** 2))
            den += float(np.sum(y_fp**2))
        assert num / den <= 1e-6


def test_chosen_ratio_never_worse_than_unsmoothed():
    stack = build_stack(13, 2, 32)
    calib = build_calibset(13, 6, 12, 32, visual_fraction=0.5)
    res = calibrate(
        stack, calib.activations, strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A
    )
    for row in res.layers:
        losses = dict(row.loss_curve)
        assert losses[row.ratio] <= losses[0.0]


def test_passact2_stream_matches_forward_quant_prefix():
    stack = random_block_stack(14, 2, 6)
    xs = _calib_inputs(15, 3, 5, 6)
    res = calibrate(stack, xs, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    scales = scales_from_result(res)
    walk = CalibrationWalk(stack, xs, "passact2", CFG_W, CFG_A)
    while (task := walk.next_linear()) is not None:
        for b in range(xs.shape[0]):
            trace = forward_quant(stack, xs[b], scales, CFG_W, CFG_A)
            assert np.array_equal(task.q_inputs[b], trace.inputs[task.index])
        walk.fix_scale(scales[task.layer.name])


def test_passact1_fp_stream_matches_forward_fp():
    stack = random_block_stack(16, 2, 6)
    xs = _calib_inputs(17, 3, 5, 6)
    res = calibrate(stack, xs, strategy="passact1", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    scales = scales_from_result(res)
    walk = CalibrationWalk(stack, xs, "passact1", CFG_W, CFG_A)
    while (task := walk.next_linear()) is not None:
        for b in range(xs.shape[0]):
            assert np.array_equal(task.fp_inputs[b], forward_fp(stack, xs[b]).inputs[task.index])
        walk.fix_scale(scales[task.layer.name])


class _Recorder(WalkObserver):
    def __init__(self):
        self.events = []

    def alloc(self, nbytes, tag):
        self.events.append(("alloc", nbytes, tag))

    def free(self, nbytes, tag):
        self.events.append(("free", nbytes, tag))


def test_calibration_loop_reports_to_one_observer():
    stack = build_stack(22, 2, 16)
    xs = build_calibset(22, 3, 8, 16, visual_fraction=0.5).activations
    opts = dict(strategy="passact2", stat_mode="topk", grid=RatioGrid(), cfg_w=CFG_W, cfg_a=CFG_A,
                fraction=0.5, loss=ProxyLossSpec())
    searched = []

    def search(task, stat):
        searched.append(task.index)
        return search_ratio(task.layer, task.q_inputs, task.fp_inputs, stat, opts["grid"], CFG_W, CFG_A)

    rec = _Recorder()
    res = _calibration_loop(stack, xs, search, rec, **opts)
    assert result_to_text(res) == result_to_text(calibrate(stack, xs, **opts))
    assert searched == [i for i, _ in stack.linears()]
    # selection's grad passes come first, then the walk's streams; all settle
    assert rec.events[:6] == [("alloc", gradient_pass_bytes(stack, 8), "grad-pass"),
                              ("free", gradient_pass_bytes(stack, 8), "grad-pass")] * 3
    assert rec.events[6] == ("alloc", xs.nbytes, "stream:main")
    # the first layer is the rmsnorm: its gain vector, then its output stream
    assert rec.events[7] == ("alloc", stack.layers[0].gain.nbytes, "params[L0]")
    # activation layers have no parameters and log none
    param_tags = {tag for _, _, tag in rec.events if tag.startswith("params")}
    assert param_tags == {f"params[L{i}]" for i, layer in enumerate(stack.layers) if not isinstance(layer, Activation)}
    signs = {"alloc": 1, "free": -1}
    assert sum(signs[kind] * nbytes for kind, nbytes, _ in rec.events) == 0


def test_calibration_is_deterministic():
    stack = build_stack(18, 2, 32)
    calib = build_calibset(18, 4, 10, 32, visual_fraction=0.5)
    kwargs = dict(strategy="passact2", stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A)
    a = calibrate(stack, calib.activations, **kwargs)
    b = calibrate(stack, calib.activations, **kwargs)
    assert result_to_text(a) == result_to_text(b)


def test_sqrt_stat_mode_records_origin():
    stack = single_linear_stack(19, 5, 4)
    xs = _calib_inputs(20, 2, 4, 5)
    res = calibrate(
        stack,
        xs,
        strategy="none",
        stat_mode="sqrt",
        grid=RatioGrid(1.0, 1.0),
        cfg_w=CFG_W,
        cfg_a=CFG_A,
    )
    assert res.layers[0].scale.origin == "sqrt_baseline"
    assert res.layers[0].ratio == 1.0


def test_result_text_roundtrip_is_exact():
    stack = build_stack(21, 1, 32)
    calib = build_calibset(21, 3, 8, 32, visual_fraction=0.5)
    res = calibrate(stack, calib.activations, strategy="passact2", stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A)
    text = result_to_text(res)
    again = result_from_text(text)
    assert result_to_text(again) == text
    assert np.array_equal(again.layers[0].scale.values, res.layers[0].scale.values)


def _mutated_result_text(field, value):
    stack = build_stack(21, 1, 32)
    calib = build_calibset(21, 3, 8, 32, visual_fraction=0.5)
    res = calibrate(stack, calib.activations, strategy="passact2", stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A)
    lines = result_to_text(res).splitlines()
    if field == "curve_point":
        i = lines.index(next(l for l in lines if l.startswith("curve "))) + 1
    else:
        i = next(i for i, l in enumerate(lines) if l.split(" ", 1)[0] == field)
        value = f"{field} {value}"
    lines[i] = value
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "field, value",
    [
        ("strategy", "bogus"),
        ("stat_mode", "median"),
        ("bits_w", "four"),
        ("bits_a", "6.5"),
        ("bits_w", "40"),
        ("fraction", "half"),
        ("fraction", "nan"),
        ("fraction", "7.0"),
        ("grid", "0.0 1.0 x"),
        ("grid", "0.0 1.0"),
        ("grid", "0.9 0.1 0.05"),
        ("grid", "0.0 1.0 inf"),
        ("layers", "one"),
        ("ratio", "0.3.5"),
        ("ratio", "nan"),
        ("ratio", "1.5"),
        ("origin", "guess"),
        ("scale", "32 1.0"),
        ("scale", "x"),
        ("curve", "many"),
        ("curve_point", "0.0 lots"),
        ("curve_point", "0.0"),
    ],
)
def test_result_from_text_rejects_invalid_fields(field, value):
    with pytest.raises(CheckpointError):
        result_from_text(_mutated_result_text(field, value))


# --- quantized artifact --------------------------------------------------------


def test_quantize_with_result_requires_full_coverage():
    stack = random_block_stack(22, 2, 6)
    xs = _calib_inputs(23, 2, 4, 6)
    res = calibrate(stack, xs, strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    partial = res.__class__(res.layers[:1], res.strategy, res.stat_mode, res.bits_w, res.bits_a, res.fraction, res.grid)
    with pytest.raises(ConfigError, match="lin1"):
        quantize_with_result(stack, partial, CFG_W, CFG_A)
    wide = random_block_stack(22, 2, 12)
    res = calibrate(wide, _calib_inputs(23, 2, 4, 12), strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    with pytest.raises(ConfigError, match="lin0"):
        quantize_with_result(stack, res, CFG_W, CFG_A)


def test_artifact_forward_matches_forward_quant():
    stack = random_block_stack(24, 2, 8)
    xs = _calib_inputs(25, 3, 6, 8)
    res = calibrate(stack, xs, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res, CFG_W, CFG_A)
    scales = scales_from_result(res)
    for b in range(xs.shape[0]):
        want = forward_quant(stack, xs[b], scales, CFG_W, CFG_A).output
        got = forward_quantized(qstack, xs[b])
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-30)


def test_artifact_forward_matches_after_file_roundtrip():
    stack = random_block_stack(26, 2, 8)
    xs = _calib_inputs(27, 2, 5, 8)
    res = calibrate(stack, xs, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res, CFG_W, CFG_A)
    blob = save_quantized(qstack)
    again = load_quantized(blob)
    assert save_quantized(again) == blob
    x = xs[0]
    assert np.array_equal(forward_quantized(qstack, x), forward_quantized(again, x))


def test_artifact_replay_recovers_curve_minima():
    stack = build_stack(28, 2, 32)
    calib = build_calibset(28, 4, 10, 32, visual_fraction=0.5)
    res = calibrate(stack, calib.activations, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res, CFG_W, CFG_A)
    from tlq.quantizer import dequantize, quantize

    by_name = {l.name: l for l in qstack.layers if hasattr(l, "qweight")}
    walk = CalibrationWalk(stack, calib.activations, "passact2", CFG_W, CFG_A)
    rows = {row.name: row for row in res.layers}
    while (task := walk.next_linear()) is not None:
        row = rows[task.layer.name]
        w_hat = dequantize(by_name[task.layer.name].qweight)
        losses = []
        for b in range(calib.batch):
            y_fp = task.fp_inputs[b] @ task.layer.weight.T + task.layer.bias
            x_hat = dequantize(quantize(task.q_inputs[b] / row.scale.values, CFG_A))
            y_q = x_hat @ w_hat.T + task.layer.bias
            losses.append(np.sum((y_fp - y_q) ** 2))
        replayed = float(np.mean(losses))
        assert replayed == pytest.approx(min(l for _, l in row.loss_curve), rel=1e-9)
        walk.fix_scale(row.scale)


def test_lossless_grid_case_through_artifact():
    w = np.array([[127.0, -3.0], [25.0, 127.0]])
    stack = LayerStack((Linear("lin", w, np.zeros(2)),), 2)
    xs = np.array([[[127.0, -64.0], [25.0, 127.0]]])
    res = calibrate(
        stack,
        xs,
        strategy="none",
        stat_mode="max",
        grid=RatioGrid(0.0, 0.0),
        cfg_w=QuantConfig(8, "per_channel"),
        cfg_a=QuantConfig(8, "per_token"),
    )
    qstack = quantize_with_result(stack, res, QuantConfig(8, "per_channel"), QuantConfig(8, "per_token"))
    assert np.array_equal(forward_quantized(qstack, xs[0]), forward_fp(stack, xs[0]).output)
    assert res.layers[0].loss_curve[0][1] == 0.0


@pytest.mark.parametrize("layer", [
    RMSNorm("norm", rand_normal(Rng(41), (17,)), 1e-6),
    Linear("lin", rand_normal(Rng(42), (9, 17)), rand_normal(Rng(43), (9,))),
    Activation("relu", "relu"),
    Activation("silu", "silu"),
], ids=lambda layer: layer.name)
@pytest.mark.parametrize("order", ["C", "F"])
def test_batch_fp_has_the_bytes_of_per_sample_layers(layer, order):
    """Three sample blocks (the last one short) give the bytes of one apply_layer_fp per sample."""
    n = 64
    per_block = _QDQ_CHUNK_ELEMS // (n * 17)
    xs = np.asarray(rand_normal(Rng(44), (2 * per_block + 3, n, 17), std=3.0), order=order)
    got = _batch_fp(layer, xs)
    assert got.flags.c_contiguous
    assert got.tobytes() == np.stack([apply_layer_fp(layer, x) for x in xs]).tobytes()


def test_calibrate_live_peak_is_within_the_single_layer_baseline():
    """tracemalloc's peak over a whole calibrate, above its inputs, stays within baseline_peak.

    The baseline counts one layer's input, both outputs, the weights and an
    input-sized workspace; the run needs less, because the quantized
    activations live in a sample block and one y_q is alive at a time.
    """
    stack = build_stack(6, 1, 128)
    calib = build_calibset(6, 64, 64, 128, visual_fraction=0.5)
    start = time.monotonic()
    tracemalloc.start()
    try:
        calibrate(stack, calib.activations, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert baseline_peak((128, 128), (64, 64)) == 16_908_288
    assert peak <= 16_908_288
    assert time.monotonic() - start < 5.0

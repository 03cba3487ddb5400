import dataclasses
import hashlib
import math
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import random_block_stack, reference_linear_quant, single_linear_stack
from helpers import BROKEN_RESULTS, broken_result_text, forward_quantized, rand_uniform
from tlq import calibration
from tlq.calibration import (
    STAT_MODES,
    STRATEGIES,
    CalibrationResult,
    CalibrationWalk,
    QuantizedLinear,
    WalkObserver,
    _batch_fp,
    _calibration_loop,
    _search_threads,
    RatioGrid,
    calibrate,
    compute_token_selections,
    gradient_pass_bytes,
    layer_loss,
    load_quantized,
    load_result,
    quantize_with_result,
    result_from_text,
    result_to_text,
    save_quantized,
    scales_from_result,
    search_ratio,
    select_ratio,
)
from tlq.distcal import baseline_peak, run_distributed_calibration
from tlq.errors import CheckpointError, ConfigError, NumericError, ShapeError
from tlq.fixtures import build_calibset, build_stack
from tlq.layers import Activation, LayerStack, Linear, RMSNorm
from tlq.model import (
    ProxyLossSpec,
    apply_layer_fp,
    apply_linear_quant,
    forward_fp,
    forward_quant,
    quantized_weight,
    quantized_weights,
)
from tlq.quantizer import _QDQ_CHUNK_ELEMS, QuantConfig
from tlq.report import build_heatmaps
from tlq.smoothing import power_scale
from tlq.tensor import Rng, rand_normal

CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")


def test_ratio_grid_includes_endpoints():
    pts = RatioGrid(0.0, 1.0, 0.05).points()
    assert len(pts) == 21
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert RatioGrid(0.3, 0.3, 0.05).points() == (0.3,)


def test_ratio_grid_last_point_is_exactly_stop():
    # a step that does not divide the span: stop is appended after the last whole step
    assert RatioGrid(0.0, 1.0, 0.3).points() == (0.0, 0.3, 0.6, 0.8999999999999999, 1.0)
    # the last step lands within 1e-12 of stop (3 * 0.1 = 0.30000000000000004): stop replaces it
    assert RatioGrid(0.0, 0.3, 0.1).points() == (0.0, 0.1, 0.2, 0.3)


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
    # 1e-10 relative is no tie: the later, smaller loss wins
    assert select_ratio([(0.0, 1.0 + 1e-10), (0.5, 1.0)]) == 0.5
    with pytest.raises(ConfigError):
        select_ratio([])


@pytest.mark.parametrize("loss", [-1.0, math.nan])
@pytest.mark.parametrize("at", [0, 2])
def test_select_ratio_refuses_a_negative_or_nan_loss(loss, at):
    curve = [(0.0, 5.0), (0.5, 1.0), (1.0, 2.0)]
    curve[at] = (curve[at][0], loss)
    with pytest.raises(NumericError, match="^a curve loss is negative or NaN$"):
        select_ratio(curve)


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
    w_hat = quantized_weight(lin, scale, CFG_W)
    got = apply_linear_quant(lin, xs, scale, w_hat, CFG_A)
    want = np.stack([reference_linear_quant(lin, xs[b], scale, CFG_W, CFG_A) for b in range(xs.shape[0])])
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(xs, before)  # the inputs are copied, never overwritten
    # a column-major batch is read into the row-major sample block; its bytes must not change
    assert apply_linear_quant(lin, np.asfortranarray(xs), scale, w_hat, CFG_A).tobytes() == want.tobytes()


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
    got = apply_linear_quant(lin, xs, scale, quantized_weight(lin, scale, CFG_W), CFG_A)
    want = np.stack([reference_linear_quant(lin, xs[i], scale, CFG_W, CFG_A) for i in range(b)])
    assert got.tobytes() == want.tobytes()


def test_batch_quant_returns_fresh_arrays():
    # queued y_q frames are held by reference, so no call may reuse a buffer
    lin, xs = _planted_layer(4, 6)
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    scale = power_scale(stat, 0.5)
    w_hat = quantized_weight(lin, scale, CFG_W)
    a = apply_linear_quant(lin, xs, scale, w_hat, CFG_A)
    b = apply_linear_quant(lin, xs, scale, w_hat, CFG_A)
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
        scale = power_scale(stat, r)
        assert loss == layer_loss(y_fp, apply_linear_quant(lin, xs, scale, quantized_weight(lin, scale, CFG_W), CFG_A))


def _count_weight_builds(monkeypatch) -> list:
    """Names of the linears whose quantized weight is built, in order, from here on."""
    built, build = [], quantized_weight

    def counted(layer, scale, cfg_w):
        built.append(layer.name)
        return build(layer, scale, cfg_w)

    monkeypatch.setattr(calibration, "quantized_weight", counted)
    return built


def test_search_builds_one_weight_per_grid_point_and_fix_scale_one_per_linear(monkeypatch):
    built = _count_weight_builds(monkeypatch)
    lin, xs = _planted_layer(8, 6)
    search_ratio(lin, xs, xs, np.max(np.abs(xs.reshape(-1, 6)), axis=0), RatioGrid(), CFG_W, CFG_A)
    assert built == [lin.name] * 21
    built.clear()
    stack = random_block_stack(9, 2, 6)
    calibrate(stack, _calib_inputs(10, 3, 5, 6), strategy="passact1", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    assert built == [name for _, lin in stack.linears() for name in [lin.name] * 22]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_raise_numeric_error(bad):
    lin, xs = _planted_layer(6, 6)
    stat = np.max(np.abs(xs.reshape(-1, 6)), axis=0)
    xs[1, 2, 3] = bad
    scale = power_scale(stat, 0.5)
    with pytest.raises(NumericError):
        apply_linear_quant(lin, xs, scale, quantized_weight(lin, scale, CFG_W), CFG_A)
    with pytest.raises(NumericError):
        search_ratio(lin, xs, xs, stat, RatioGrid(), CFG_W, CFG_A)


def test_batch_kernels_reject_mismatched_shapes():
    lin, xs = _planted_layer(7, 6)
    stat = np.ones(6)
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
        weights = quantized_weights(stack, scales, cfg_w)
        num = den = 0.0
        for b in range(xs.shape[0]):
            y_fp = forward_fp(stack, xs[b]).output
            y_q = forward_quant(stack, xs[b], scales, weights, cfg_a).output
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
    weights = quantized_weights(stack, scales, CFG_W)
    walk = CalibrationWalk(stack, xs, "passact2", CFG_W, CFG_A)
    while (task := walk.next_linear()) is not None:
        for b in range(xs.shape[0]):
            trace = forward_quant(stack, xs[b], scales, weights, CFG_A)
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
    assert "\norigin sqrt_baseline\n" in result_to_text(res)
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
        ("origin", "sqrt_baseline"),
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


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("how", sorted(BROKEN_RESULTS))
def test_load_result_refuses_what_calibrate_never_writes(how, strategy):
    text, message = broken_result_text(result_to_text(_small_result(strategy)), how)
    with pytest.raises(CheckpointError, match=re.escape(message)) as info:
        load_result(text.encode())
    assert info.value.code == "bad_field"


@pytest.mark.parametrize("stat_mode", STAT_MODES)
def test_result_from_text_refuses_an_origin_its_stat_mode_does_not_give(stat_mode):
    text = result_to_text(_small_result(stat_mode=stat_mode))
    right, wrong = ("sqrt_baseline", "stat_ratio") if stat_mode == "sqrt" else ("stat_ratio", "sqrt_baseline")
    assert f"\norigin {right}\n" in text
    with pytest.raises(CheckpointError, match=f"origin of 'lin0': stat mode {stat_mode} gives {right}"):
        result_from_text(text.replace(f"\norigin {right}\n", f"\norigin {wrong}\n", 1))


def _small_result(strategy="passact2", stat_mode="max"):
    xs = build_calibset(1, 2, 8, 16, visual_fraction=0.5).activations
    return calibrate(random_block_stack(1, 1, 16), xs, strategy=strategy, stat_mode=stat_mode, cfg_w=CFG_W, cfg_a=CFG_A)


_BITS = "bits must be an integer in"
_FRACTION = r"fraction must be in \(0, 1\]"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("strategy", "bogus", "strategy must be one of"),
        ("stat_mode", "median", "stat mode must be one of"),
        ("fraction", 0.0, _FRACTION),
        ("fraction", 7.0, _FRACTION),
        ("fraction", float("nan"), _FRACTION),
        ("bits_w", 1, _BITS),
        ("bits_w", 17, _BITS),
        ("bits_a", 1, _BITS),
        ("bits_a", 17, _BITS),
    ],
)
def test_a_result_refuses_an_invalid_field(field, value, message):
    res = _small_result()
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(res, **{field: value})
    fields = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)}
    with pytest.raises(ConfigError, match=message):
        CalibrationResult(**{**fields, field: value})


@pytest.mark.parametrize("ratio", [float("nan"), 1.5, -0.1])
def test_a_result_refuses_a_row_ratio_outside_the_unit_interval(ratio):
    res = _small_result()
    with pytest.raises(ConfigError, match="layer 'lin0': its ratio is not its curve's select_ratio"):
        dataclasses.replace(res, layers=(dataclasses.replace(res.layers[0], ratio=ratio),))


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda row: {"loss_curve": row.loss_curve[1::-1] + row.loss_curve[2:]},
                 "its curve's ratios are not the grid's points", id="curve_off_grid"),
    pytest.param(lambda row: {"loss_curve": row.loss_curve[:-1]},
                 "its curve's ratios are not the grid's points", id="curve_short"),
    pytest.param(lambda row: {"ratio": next(r for r, _ in row.loss_curve if r != row.ratio)},
                 "its ratio is not its curve's select_ratio", id="ratio_not_minimizer"),
])
def test_the_result_constructor_refuses_a_row_that_calibrate_never_builds(change, message):
    res = _small_result()
    row = dataclasses.replace(res.layers[0], **change(res.layers[0]))
    with pytest.raises(ConfigError, match=f"layer 'lin0': {re.escape(message)}"):
        dataclasses.replace(res, layers=(row,))  # replace runs the constructor's checks


def test_the_granularity_label_changes_no_calibration_byte():
    xs = build_calibset(1, 2, 8, 16, visual_fraction=0.5).activations
    stack = random_block_stack(1, 1, 16)
    texts = {
        result_to_text(calibrate(stack, xs, stat_mode="max", cfg_w=cfg_w, cfg_a=CFG_A))
        for cfg_w in (QuantConfig(4), QuantConfig(4, "per_channel"))  # the default label, and the orientation's
    }
    assert len(texts) == 1


_BAD_OPTIONS = {"bad0": {"stat_mode": "median"}, "bad1": {"fraction": 0.0}, "bad2": {"fraction": 7.0},
                "bad3": {"fraction": float("nan")}}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{key}")
    for entry in ("calibrate", "distributed", "heatmap") for key, bad in _BAD_OPTIONS.items()
    if entry != "heatmap" or "fraction" in bad  # a heatmap takes no stat mode
])
def test_a_bad_stat_mode_or_fraction_fails_before_the_first_backward_pass(monkeypatch, entry, bad):
    calls = []
    real = calibration.backward_token_grads

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calibration, "backward_token_grads", counted)
    stack, calib = random_block_stack(1, 1, 16), build_calibset(1, 2, 4, 16, visual_fraction=0.5)

    def run(**opts):
        if entry == "heatmap":
            return build_heatmaps(stack, calib, 0, fraction=opts["fraction"])
        return _run_entry(entry, stack, calib.activations, **opts, cfg_w=CFG_W, cfg_a=CFG_A)

    with pytest.raises(ConfigError, match="stat mode must be one of|fraction must be in"):
        run(**{"stat_mode": "topk", "fraction": 0.5, **bad})
    assert calls == []
    run(stat_mode="topk", fraction=0.5)
    assert len(calls) == 2  # the counter sees each sample's selection pass of a valid run


@pytest.mark.parametrize("stat_mode", STAT_MODES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_calibrated_result_reads_back_to_its_own_text(strategy, stat_mode):
    text = result_to_text(_small_result(strategy, stat_mode))
    assert result_to_text(load_result(text.encode())) == text


def test_a_layer_name_with_spaces_and_tabs_reads_back():
    stack = LayerStack((Linear("lin 0\t x ", np.eye(16), np.zeros(16)),), 16)
    res = calibrate(stack, build_calibset(1, 2, 8, 16).activations, stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    assert load_result(result_to_text(res).encode()).layers[0].name == "lin 0\t x "


# --- quantized artifact --------------------------------------------------------


def test_quantize_with_result_requires_full_coverage():
    stack = random_block_stack(22, 2, 6)
    xs = _calib_inputs(23, 2, 4, 6)
    res = calibrate(stack, xs, strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    partial = res.__class__(res.layers[:1], res.strategy, res.stat_mode, res.bits_w, res.bits_a, res.fraction, res.grid)
    with pytest.raises(ConfigError, match="lin1"):
        quantize_with_result(stack, partial)
    wide = random_block_stack(22, 2, 12)
    res = calibrate(wide, _calib_inputs(23, 2, 4, 12), strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    with pytest.raises(ConfigError, match="lin0"):
        quantize_with_result(stack, res)


@pytest.mark.parametrize("bits", [(4, 6), (8, 16), (3, 2)])
def test_artifact_header_carries_the_result_bit_widths(bits):
    stack = random_block_stack(29, 2, 8)
    res = calibrate(
        stack, _calib_inputs(30, 2, 5, 8), strategy="passact2", stat_mode="max",
        cfg_w=QuantConfig(bits[0], "per_channel"), cfg_a=QuantConfig(bits[1], "per_token"),
    )
    blob = save_quantized(quantize_with_result(stack, res))
    assert blob[8:10] == bytes(bits)  # u8 bits_w | u8 bits_a after the magic
    again = load_quantized(blob)
    assert (again.bits_w, again.bits_a) == bits


# sha256 of the artifact below, recorded before the fold became one pass from the last layer
_EVERY_PREDECESSOR_SHA256 = "40d56cd9eb41c20e3f137e22817aa2b4bbca47470966c5de52d619f6b8c5f6b4"


def test_quantize_folds_each_scale_by_the_kind_of_its_predecessor():
    """A linear first, after a linear, after an activation and after an rmsnorm.

    Only a linear after an rmsnorm or a linear has its scale folded away; the
    folded linear is quantized after its successor's scale divides its rows.
    """
    rng = Rng(47)

    def linear(name):
        return Linear(name, rand_normal(rng.split(f"w{name}"), (8, 8)) / np.sqrt(8), rand_normal(rng.split(name), (8,)))

    stack = LayerStack((
        linear("first"), linear("after_linear"), Activation("act", "silu"),
        linear("after_act"), RMSNorm("norm", rand_uniform(rng.split("gain"), (8,), 0.5, 1.5), 1e-6),
        linear("after_norm"),
    ), 8)
    res = calibrate(stack, _calib_inputs(48, 2, 4, 8), strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    blob = save_quantized(quantize_with_result(stack, res))
    assert hashlib.sha256(blob).hexdigest() == _EVERY_PREDECESSOR_SHA256
    scales = {row.name: row.scale.values for row in res.layers}
    got = {layer.name: layer.input_scale for layer in load_quantized(blob).layers if isinstance(layer, QuantizedLinear)}
    assert got["after_linear"] is None and got["after_norm"] is None
    assert np.array_equal(got["first"], scales["first"]) and np.array_equal(got["after_act"], scales["after_act"])


@pytest.mark.parametrize("field", ["bits_w", "bits_a"])
def test_quantize_with_result_refuses_bit_widths_the_artifact_cannot_hold(field):
    stack = random_block_stack(29, 1, 8)
    res = calibrate(stack, _calib_inputs(30, 2, 5, 8), strategy="none", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    with pytest.raises(ConfigError, match="bits must be an integer in"):
        quantize_with_result(stack, dataclasses.replace(res, **{field: 17}))


def test_artifact_forward_matches_forward_quant():
    stack = random_block_stack(24, 2, 8)
    xs = _calib_inputs(25, 3, 6, 8)
    res = calibrate(stack, xs, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res)
    scales = scales_from_result(res)
    weights = quantized_weights(stack, scales, CFG_W)
    for b in range(xs.shape[0]):
        want = forward_quant(stack, xs[b], scales, weights, CFG_A).output
        got = forward_quantized(qstack, xs[b])
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-30)


def test_artifact_forward_matches_after_file_roundtrip():
    stack = random_block_stack(26, 2, 8)
    xs = _calib_inputs(27, 2, 5, 8)
    res = calibrate(stack, xs, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res)
    blob = save_quantized(qstack)
    again = load_quantized(blob)
    assert save_quantized(again) == blob
    x = xs[0]
    assert np.array_equal(forward_quantized(qstack, x), forward_quantized(again, x))


def test_artifact_replay_recovers_curve_minima():
    stack = build_stack(28, 2, 32)
    calib = build_calibset(28, 4, 10, 32, visual_fraction=0.5)
    res = calibrate(stack, calib.activations, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    qstack = quantize_with_result(stack, res)
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
    qstack = quantize_with_result(stack, res)
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
    xs = np.asarray(rand_normal(Rng(44), (2 * per_block + 3, n, 17)) * 3.0, order=order)
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


def _search_thread_names() -> set:
    return {t.name for t in threading.enumerate() if t.name.startswith("tlq-search")}


def test_pooled_grid_points_raise_as_in_grid_order_and_leave_no_thread(monkeypatch):
    """An Inf activation fails r = 0 in the quantizer (and later points in the scale) with one message either way."""
    stack = single_linear_stack(11, 32, 32)
    xs = rand_normal(Rng(12), (130, 16, 32))
    opts = dict(strategy="passact2", stat_mode="max", grid=RatioGrid(0.0, 1.0, 0.25), cfg_w=CFG_W, cfg_a=CFG_A)
    point_threads = []
    build = quantized_weight

    def recorded(layer, scale, cfg_w):
        point_threads.append(threading.current_thread().name)
        return build(layer, scale, cfg_w)

    monkeypatch.setattr(calibration, "quantized_weight", recorded)
    monkeypatch.setattr(calibration, "_usable_cpus", lambda: 2)
    assert _search_threads(5, xs, 32) == 2
    calibrate(stack, xs, **opts)
    assert all(name.startswith("tlq-search") for name in point_threads[:5])  # the 6th builds fix_scale's weight
    assert _search_thread_names() == set()

    xs[7, 3, 5] = np.inf
    messages = []
    for cpus in (2, 1):
        monkeypatch.setattr(calibration, "_usable_cpus", lambda: cpus)
        point_threads.clear()
        with pytest.raises(NumericError) as err:
            calibrate(stack, xs, **opts)
        messages.append(str(err.value))
        assert point_threads[0].startswith("tlq-search") == (cpus == 2)
        assert _search_thread_names() == set()
    assert messages[0] == messages[1] == "quantize input contains NaN or Inf"


def test_calibrate_live_peak_on_the_pool_side_is_within_the_single_layer_baseline(monkeypatch):
    """At readme's width the grid points run on two threads, each with its own blocks, within baseline_peak."""
    monkeypatch.setattr(calibration, "_usable_cpus", lambda: 2)
    stack = build_stack(6, 1, 64)
    calib = build_calibset(6, 128, 64, 64, visual_fraction=0.5)
    assert _search_threads(21, calib.activations, 64) == 2
    tracemalloc.start()
    try:
        calibrate(stack, calib.activations, strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert baseline_peak((64, 64), (128, 64)) == 16_809_984
    assert peak <= 16_809_984


def _no_norm_stack(seed: int, c: int) -> LayerStack:
    rng = Rng(seed)
    w0, w1 = (rand_normal(rng.split(f"w{d}"), (c, c)) / np.sqrt(c) for d in range(2))
    lin0, lin1 = Linear("lin0", w0, np.zeros(c)), Linear("lin1", w1, np.zeros(c))
    return LayerStack((lin0, Activation("act0", "silu"), lin1, Activation("act1", "relu")), c)


# id -> (depth, channels) of a `build_stack` fixture; depth 0 is `_no_norm_stack`
SELECTION_STACKS = {"D2C64": (2, 64), "D2C256": (2, 256), "D8C64": (8, 64), "no_rmsnorm": (0, 64)}


@pytest.mark.parametrize("shape", SELECTION_STACKS)
def test_one_selection_pass_holds_at_most_its_grad_pass_charge_plus_64_kib(shape):
    """tracemalloc's peak of one sample's selection pass, above its inputs, against the ledger's charge."""
    depth, channels = SELECTION_STACKS[shape]
    stack = build_stack(7, depth, channels) if depth else _no_norm_stack(7, channels)
    acts = build_calibset(7, 1, 64, channels, visual_fraction=0.5).activations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_token_selections(stack, acts, 0.5, ProxyLossSpec())
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= gradient_pass_bytes(stack, 64) + 64 * 1024


def test_a_fortran_order_batch_gives_the_bytes_of_its_c_order_copy():
    """Both entry points copy a non-C-order batch into C order once; rmsnorm sums and gemms see one layout."""
    stack = build_stack(3, 1, 32)
    xs = build_calibset(3, 4, 8, 32, visual_fraction=0.5).activations
    opts = dict(strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    want = result_to_text(calibrate(stack, xs, **opts))
    f_order = np.asfortranarray(xs)
    assert not f_order.flags.c_contiguous
    assert result_to_text(calibrate(stack, f_order, **opts)) == want
    dist, _ = run_distributed_calibration(stack, f_order, workers=2, **opts)
    assert result_to_text(dist) == want


def _run_entry(entry, *args, **kwargs):
    if entry == "calibrate":
        return calibrate(*args, **kwargs)
    return run_distributed_calibration(*args, workers=2, **kwargs)[0]


@pytest.mark.parametrize("shape", [(0, 4, 16), (2, 0, 16)], ids=["no_samples", "no_tokens"])
@pytest.mark.parametrize("stat_mode", ["max", "mean", "sqrt", "topk"])
@pytest.mark.parametrize("entry", ["calibrate", "distributed"])
def test_an_empty_batch_fails_with_one_shape_error_before_any_work(monkeypatch, entry, stat_mode, shape):
    """One ShapeError on every path, with no warning, before selection, the walk or the thread count."""
    def work(*args, **kwargs):
        raise AssertionError("selection or the walk started")

    monkeypatch.setattr(calibration, "CalibrationWalk", work)
    monkeypatch.setattr(calibration, "compute_token_selections", work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ShapeError, match=r"^calibration batch needs at least one sample and one token, got "):
            _run_entry(entry, random_block_stack(1, 1, 16), np.zeros(shape), stat_mode=stat_mode,
                       cfg_w=CFG_W, cfg_a=CFG_A)


@pytest.mark.parametrize("stat_mode", ["max", "topk"])
@pytest.mark.parametrize("entry", ["calibrate", "distributed"])
def test_a_rank_2_batch_fails_with_the_walks_shape_error_before_selection(monkeypatch, entry, stat_mode):
    """topk's selection would take each row of an (N, C) batch for a sample and name a (C,) shape."""
    def work(*args, **kwargs):
        raise AssertionError("selection or the walk started")

    monkeypatch.setattr(calibration, "compute_token_selections", work)
    with pytest.raises(ShapeError, match=r"^calibration activations must be \(B, N, C\), got \(4, 16\)$"):
        _run_entry(entry, random_block_stack(1, 1, 16), np.ones((4, 16)), stat_mode=stat_mode,
                   cfg_w=CFG_W, cfg_a=CFG_A)


@pytest.mark.parametrize("fraction", [0.0, -1.0, 5.0, float("nan")])
@pytest.mark.parametrize("stat_mode", ["max", "mean", "sqrt"])
@pytest.mark.parametrize("entry", ["calibrate", "distributed"])
def test_a_fraction_outside_the_unit_interval_fails_before_any_work(monkeypatch, entry, stat_mode, fraction):
    """Every result records its fraction, so every stat mode checks it, or load_result would refuse the result."""
    def walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(calibration, "CalibrationWalk", walk)
    xs = build_calibset(1, 2, 4, 16, visual_fraction=0.5).activations
    with pytest.raises(ConfigError, match=r"fraction must be in \(0, 1\]"):
        _run_entry(entry, random_block_stack(1, 1, 16), xs, stat_mode=stat_mode, fraction=fraction,
                   cfg_w=CFG_W, cfg_a=CFG_A)


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
@pytest.mark.parametrize("stat_mode", ["max", "mean", "sqrt", "topk"])
@pytest.mark.parametrize("entry", ["calibrate", "distributed"])
def test_a_batch_that_is_not_float64_fails_before_any_work(monkeypatch, entry, stat_mode, dtype):
    """Every stat mode refuses the batch, not only topk, whose selection pass reaches the model's check."""
    def walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(calibration, "CalibrationWalk", walk)
    xs = build_calibset(1, 2, 4, 16, visual_fraction=0.5).activations.astype(dtype)
    with pytest.raises(NumericError, match=rf"^stack input must be float64, got {np.dtype(dtype)}$"):
        _run_entry(entry, random_block_stack(1, 1, 16), xs, stat_mode=stat_mode, cfg_w=CFG_W, cfg_a=CFG_A)


@pytest.mark.parametrize("stat_mode", ["max", "mean", "sqrt", "topk"])
@pytest.mark.parametrize("entry", ["calibrate", "distributed"])
def test_a_valid_fraction_round_trips_through_load_result(entry, stat_mode):
    xs = build_calibset(1, 2, 8, 16, visual_fraction=0.5).activations
    res = _run_entry(entry, random_block_stack(1, 1, 16), xs, stat_mode=stat_mode, fraction=0.25,
                     cfg_w=CFG_W, cfg_a=CFG_A)
    text = result_to_text(res)
    again = load_result(text.encode())
    assert again.fraction == 0.25
    assert result_to_text(again) == text

import dataclasses

import numpy as np
import pytest

from tlq import calibration, importance, model, report
from tlq.calibration import (
    CalibrationWalk,
    _batch_fp,
    _batch_quant,
    calibrate,
    layer_loss,
    scales_from_result,
)
from tlq.errors import ConfigError
from tlq.fixtures import build_calibset, build_stack
from tlq.importance import activation_error_probe
from tlq.model import ProxyLossSpec, forward_fp, forward_quant, loss_value
from tlq.quantizer import QuantConfig
from tlq.report import (
    accuracy_proxy_gap,
    build_heatmaps,
    evaluate,
    heatmap_csv,
    near_zero_fraction,
    parse_heatmap_csv,
)

CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")


def _calibrated(seed=1, bits=(4, 6), depth=2, c=32, b=4, n=12, strategy="passact2"):
    stack = build_stack(seed, depth, c)
    calib = build_calibset(seed, b, n, c, visual_fraction=0.5)
    res = calibrate(
        stack,
        calib.activations,
        strategy=strategy,
        stat_mode="topk",
        cfg_w=QuantConfig(bits[0], "per_channel"),
        cfg_a=QuantConfig(bits[1], "per_token"),
    )
    return stack, calib, res


def test_high_bit_eval_gap_is_negligible():
    stack, calib, res = _calibrated(seed=2, bits=(16, 16))
    rep = evaluate(stack, res, calib)
    # squared output error converges ~4x per bit; the loss gap at its sqrt rate
    assert rep.output_mse <= 1e-6 * 2.0 * rep.fp_loss
    assert rep.end_to_end_gap <= 1e-4 * rep.fp_loss
    assert rep.ce_gap <= 1e-4


def test_fp_versus_fp_gap_is_exactly_zero():
    stack, calib, _ = _calibrated(seed=3)
    loss = ProxyLossSpec()
    for b in range(calib.batch):
        y = forward_fp(stack, calib.activations[b]).output
        assert loss_value(y, loss) - loss_value(y, loss) == 0.0


def test_report_totals_match_independent_recomputation():
    stack, calib, res = _calibrated(seed=4)
    rep = evaluate(stack, res, calib)
    scales = scales_from_result(res)
    fp_total = q_total = 0.0
    loss = ProxyLossSpec()
    for b in range(calib.batch):
        x = calib.activations[b]
        fp_total += loss_value(forward_fp(stack, x).output, loss)
        q_total += loss_value(forward_quant(stack, x, scales, CFG_W, CFG_A).output, loss)
    assert rep.fp_loss == pytest.approx(fp_total / calib.batch, rel=1e-12)
    assert rep.quant_loss == pytest.approx(q_total / calib.batch, rel=1e-12)
    assert rep.end_to_end_gap == pytest.approx(abs(q_total - fp_total) / calib.batch, rel=1e-9)


def test_report_text_is_versioned_and_deterministic():
    stack, calib, res = _calibrated(seed=5)
    a = evaluate(stack, res, calib).to_text()
    b = evaluate(stack, res, calib).to_text()
    assert a == b
    assert a.startswith("tlq-eval-report v1\n")
    assert "ce_gap" in a


def test_estimate_tracks_measured_loss_change():
    stack, calib, res = _calibrated(seed=6, bits=(8, 8))
    rep = evaluate(stack, res, calib)
    for layer in rep.layers:
        if abs(layer.measured) > 1e-12:
            assert abs(layer.estimate - layer.measured) <= 0.6 * abs(layer.measured)


@pytest.mark.parametrize(
    "seed, depth, strategy", [(12, 4, "passact1"), (13, 2, "passact2"), (16, 3, "none")]
)
def test_shared_trace_eval_equals_standalone_probes(seed, depth, strategy):
    """evaluate's single trace per sample gives the bytes of the standalone calls."""
    stack, calib, res = _calibrated(seed=seed, depth=depth, strategy=strategy)
    rep = evaluate(stack, res, calib)
    scales = scales_from_result(res)
    cfg_w = QuantConfig(res.bits_w, "per_channel")
    cfg_a = QuantConfig(res.bits_a, "per_token")
    index = {lin.name: idx for idx, lin in stack.linears()}
    assert [l.name for l in rep.layers] == [row.name for row in res.layers]
    for layer in rep.layers:
        est_total = meas_total = 0.0
        for b in range(calib.batch):
            est, meas = activation_error_probe(
                stack, calib.activations[b], index[layer.name], cfg_a, scale=scales[layer.name]
            )
            est_total += est
            meas_total += meas
        assert layer.estimate == est_total
        assert layer.measured == meas_total
    assert rep.ce_gap == accuracy_proxy_gap(stack, res, calib)
    ce_total = 0.0
    for b in range(calib.batch):
        y_fp = forward_fp(stack, calib.activations[b]).output
        y_q = forward_quant(stack, calib.activations[b], scales, cfg_w, cfg_a).output
        labels = ProxyLossSpec("ce_pseudo", np.argmax(y_fp, axis=1))
        ce_total += loss_value(y_q, labels) - loss_value(y_fp, labels)
    assert rep.ce_gap == abs(ce_total) / calib.batch


@pytest.mark.parametrize("strategy", ["none", "passact1", "passact2"])
def test_layer_losses_equal_the_walk_reference(strategy):
    """Per-sample squared sums give the bytes of layer_loss over whole-batch walk outputs."""
    stack, calib, res = _calibrated(seed=17, depth=3, b=5, strategy=strategy)
    cfg_w = QuantConfig(res.bits_w, "per_channel")
    cfg_a = QuantConfig(res.bits_a, "per_token")
    scales = scales_from_result(res)
    walk = CalibrationWalk(stack, calib.activations, strategy, cfg_w, cfg_a)
    want = {}
    while (task := walk.next_linear()) is not None:
        scale = scales[task.layer.name]
        y_fp = _batch_fp(task.layer, task.fp_inputs)
        y_q = _batch_quant(task.layer, task.q_inputs, scale, cfg_w, cfg_a)
        want[task.layer.name] = layer_loss(y_fp, y_q)
        walk.fix_scale(scale)
    rep = evaluate(stack, res, calib)
    assert len(rep.layers) == len(want) == 3
    for layer in rep.layers:
        assert layer.loss == want[layer.name]


def test_evaluate_runs_one_trace_and_one_backward_per_sample(monkeypatch):
    stack, calib, res = _calibrated(seed=14, depth=3)
    counts = {"forward": 0, "backward": 0, "quant": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    fwd = counted(model.forward_fp, "forward")
    bwd = counted(model.backward_from_trace, "backward")
    fq = counted(model.forward_quant, "quant")
    # every namespace a forward or backward pass can be reached through
    for module in (model, importance, report):
        monkeypatch.setattr(module, "forward_fp", fwd)
    for module in (model, report):
        monkeypatch.setattr(module, "backward_from_trace", bwd)
        monkeypatch.setattr(module, "forward_quant", fq)

    def no_walk(*args, **kwargs):
        raise AssertionError("evaluate constructed a CalibrationWalk")

    monkeypatch.setattr(calibration.CalibrationWalk, "__init__", no_walk)
    evaluate(stack, res, calib)
    assert counts["forward"] == calib.batch
    assert 0 < counts["backward"] <= calib.batch
    assert counts["quant"] == calib.batch


def test_evaluate_rejects_result_for_another_stack():
    stack, calib, res = _calibrated(seed=15, depth=3)
    shallow = build_stack(15, 2, 32)
    with pytest.raises(ConfigError, match="lin2"):
        evaluate(shallow, res, calib)
    _, _, wide = _calibrated(seed=15, depth=3, c=64)
    with pytest.raises(ConfigError, match="lin0"):
        evaluate(stack, wide, calib)


def test_evaluate_rejects_unknown_strategy():
    stack, calib, res = _calibrated(seed=15)
    with pytest.raises(ConfigError, match="strategy"):
        evaluate(stack, dataclasses.replace(res, strategy="passact3"), calib)


# --- heatmaps -------------------------------------------------------------------


def test_heatmap_row_counts_and_selection_size():
    stack = build_stack(7, 2, 32)
    calib = build_calibset(7, 4, 16, 32, visual_fraction=0.5)
    pair = build_heatmaps(stack, calib, layer_index=1, seed=0)
    assert len(pair.pre) == 16
    assert len(pair.post) == int(np.ceil(0.5 * 16))
    assert len(pair.selection.indices) == len(pair.post)


def test_heatmap_near_zero_fraction_drops_after_selection():
    stack = build_stack(8, 2, 32)
    calib = build_calibset(8, 4, 20, 32, visual_fraction=0.8)
    pair = build_heatmaps(stack, calib, layer_index=1, seed=0)
    assert near_zero_fraction(pair.post) < near_zero_fraction(pair.pre)


def test_heatmap_subsampling_is_deterministic_and_ratio_preserving():
    stack = build_stack(9, 2, 32)
    calib = build_calibset(9, 4, 20, 32, visual_fraction=0.5)
    a = build_heatmaps(stack, calib, 1, seed=3, max_tokens=10, max_channels=8)
    b = build_heatmaps(stack, calib, 1, seed=3, max_tokens=10, max_channels=8)
    assert [r[0] for r in a.pre] == [r[0] for r in b.pre]
    assert a.channel_indices == b.channel_indices
    assert len(a.pre) == 10 and len(a.channel_indices) == 8
    visual = sum(r[1] for r in a.pre)
    assert visual == 5  # same visual:text ratio as the full token set


def test_heatmap_csv_roundtrip():
    stack = build_stack(10, 1, 32)
    calib = build_calibset(10, 2, 8, 32, visual_fraction=0.5)
    pair = build_heatmaps(stack, calib, 0, seed=1)
    text = heatmap_csv(pair.pre, pair.channel_indices)
    rows = parse_heatmap_csv(text)
    assert len(rows) == len(pair.pre)
    assert rows[0][2] == pair.pre[0][2]
    assert rows[0][3] == pair.pre[0][3]


def test_heatmap_layer_out_of_range():
    stack = build_stack(11, 1, 32)
    calib = build_calibset(11, 2, 8, 32, visual_fraction=0.5)
    with pytest.raises(ConfigError):
        build_heatmaps(stack, calib, 99)

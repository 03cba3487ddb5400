import dataclasses
import time
import tracemalloc
from math import ceil

import numpy as np
import pytest

from helpers import evaluate_per_sample, forward_fp_from, near_zero_fraction, parse_heatmap_csv
from tlq import calibration, importance, model, report
from tlq.calibration import (
    CalibrationWalk,
    _batch_fp,
    calibrate,
    layer_loss,
    scales_from_result,
)
from tlq.errors import ConfigError
from tlq.fixtures import build_calibset, build_stack
from tlq.importance import activation_error_probe
from tlq.model import (
    CalibrationSet,
    ProxyLossSpec,
    apply_linear_quant,
    backward_from_trace,
    backward_token_grads,
    forward_fp,
    forward_quant,
    loss_value,
    quantized_weight,
    quantized_weights,
)
from tlq.quantizer import QuantConfig, dequantize, quantize
from tlq.report import (
    accuracy_proxy_gap,
    build_heatmaps,
    evaluate,
    heatmap_csv,
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
    weights = quantized_weights(stack, scales, CFG_W)
    fp_total = q_total = 0.0
    loss = ProxyLossSpec()
    for b in range(calib.batch):
        x = calib.activations[b]
        fp_total += loss_value(forward_fp(stack, x).output, loss)
        q_total += loss_value(forward_quant(stack, x, scales, weights, CFG_A).output, loss)
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
    """The stacked probe gives, per linear, the bytes of a tail run for that linear alone, and evaluate their sums."""
    stack, calib, res = _calibrated(seed=seed, depth=depth, strategy=strategy)
    rep = evaluate(stack, res, calib)
    scales = scales_from_result(res)
    cfg_w = QuantConfig(res.bits_w, "per_channel")
    cfg_a = QuantConfig(res.bits_a, "per_token")
    loss = ProxyLossSpec()
    totals = {lin.name: [0.0, 0.0] for _, lin in stack.linears()}
    assert [l.name for l in rep.layers] == [row.name for row in res.layers]
    # a block of 3 samples and one of 1: the order in which the perturbed blocks join the tail stack matters
    for block in (calib.activations[:3], calib.activations[3:]):
        trace = forward_fp(stack, block)
        grads = backward_from_trace(stack, trace)
        probes = activation_error_probe(stack, trace, grads, scales, cfg_a)
        assert list(probes) == [lin.name for _, lin in stack.linears()]
        for idx, lin in stack.linears():
            x_l, s = trace.inputs[idx], scales[lin.name].values
            q = dequantize(quantize((x_l / s).reshape(-1, x_l.shape[-1]), cfg_a)).reshape(x_l.shape)
            delta = q * s - x_l
            est = np.sum(grads[idx] * delta, axis=(1, 2))
            meas = loss_value(forward_fp_from(stack, idx, x_l + delta), loss) - loss_value(trace.output, loss)
            assert probes[lin.name][0].tobytes() == est.tobytes()
            assert probes[lin.name][1].tobytes() == meas.tobytes()
            for e, m in zip(est.tolist(), meas.tolist()):
                totals[lin.name][0] += e
                totals[lin.name][1] += m
    for layer in rep.layers:
        assert [layer.estimate, layer.measured] == totals[layer.name]
    assert rep.ce_gap == accuracy_proxy_gap(stack, res, calib)
    weights = quantized_weights(stack, scales, cfg_w)
    ce_total = 0.0
    for b in range(calib.batch):
        y_fp = forward_fp(stack, calib.activations[b]).output
        y_q = forward_quant(stack, calib.activations[b], scales, weights, cfg_a).output
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
        y_q = apply_linear_quant(task.layer, task.q_inputs, scale, quantized_weight(task.layer, scale, cfg_w), cfg_a)
        want[task.layer.name] = layer_loss(y_fp, y_q)
        walk.fix_scale(scale)
    rep = evaluate(stack, res, calib)
    assert len(rep.layers) == len(want) == 3
    for layer in rep.layers:
        assert layer.loss == want[layer.name]


def test_evaluate_runs_one_trace_and_one_backward_per_block(monkeypatch):
    stack, calib, res = _calibrated(seed=14, depth=1, c=16, b=25)
    k = report._eval_block(stack, calib.activations)
    assert k == 2  # B*C // (3 * sum(widths)) = 400 // 192
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
    blocks = ceil(calib.batch / k)
    assert counts == {"forward": blocks, "backward": blocks, "quant": blocks}


@pytest.mark.parametrize("strategy", ["none", "passact2"])
def test_evaluate_and_ce_gap_build_each_linear_weight_once(monkeypatch, strategy):
    """One quantized weight per linear and call: 8 at depth 8 and B32, where one per block would be 256."""
    stack = build_stack(26, 8, 16)
    calib = build_calibset(26, 32, 4, 16, visual_fraction=0.5)
    res = calibrate(stack, calib.activations, strategy=strategy, stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    assert report._eval_block(stack, calib.activations) == 1
    built, build = [], model.quantized_weight

    def counted(layer, scale, cfg_w):
        built.append(layer.name)
        return build(layer, scale, cfg_w)

    monkeypatch.setattr(model, "quantized_weight", counted)
    names = [lin.name for _, lin in stack.linears()]
    assert len(names) == 8
    evaluate(stack, res, calib)
    assert built == names
    built.clear()
    accuracy_proxy_gap(stack, res, calib)
    assert built == names


# seed, depth, channels, batch, tokens; column-major builds the set from a Fortran-order batch
EVAL_SHAPES = {
    "C17-N3-B5": (21, 2, 17, 5, 3, False),
    "B1-N1": (22, 2, 16, 1, 1, False),
    "N700": (23, 1, 17, 3, 700, False),
    "D8": (24, 8, 16, 4, 5, False),
    "column-major": (25, 1, 17, 24, 3, True),
}


@pytest.mark.filterwarnings("ignore:token selection kept only")
@pytest.mark.parametrize("strategy", ["none", "passact1", "passact2"])
@pytest.mark.parametrize("shape", sorted(EVAL_SHAPES))
def test_block_eval_has_the_bytes_of_the_per_sample_loop(monkeypatch, shape, strategy):
    """Every block size gives the report bytes of the one-sample reference."""
    seed, depth, c, b, n, column_major = EVAL_SHAPES[shape]
    stack = build_stack(seed, depth, c)
    calib = build_calibset(seed, b, n, c, visual_fraction=0.5)
    if column_major:
        calib = dataclasses.replace(calib, activations=np.asfortranarray(calib.activations))
    blocks = sorted({1, 2, b})
    for stat_mode in ("topk", "max"):
        for bits in ((4, 6), (8, 8), (3, 4)):
            res = calibrate(
                stack, calib.activations, strategy=strategy, stat_mode=stat_mode,
                cfg_w=QuantConfig(bits[0], "per_channel"), cfg_a=QuantConfig(bits[1], "per_token"),
            )
            want = evaluate_per_sample(stack, res, calib).to_text()
            assert evaluate(stack, res, calib).to_text() == want
            for k in blocks:
                with monkeypatch.context() as m:
                    m.setattr(report, "_eval_block", lambda stack, acts: k)
                    assert evaluate(stack, res, calib).to_text() == want, (stat_mode, bits, k)


@pytest.mark.parametrize("depth, channels, batch, want", [(2, 64, 128, 6), (8, 64, 32, 1), (2, 256, 32, 1)])
def test_eval_block_fits_three_traces_in_the_batch(depth, channels, batch, want):
    """The benchmark shapes: readme runs 6 samples per block, deep and wide one."""
    stack = build_stack(0, depth, channels)
    acts = np.zeros((batch, 64, channels))
    assert report._eval_block(stack, acts) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_live_peak_is_within_calibrate_s():
    """At the deep shape a block holds one sample; blocks sized by layer width would peak 7x higher."""
    stack = build_stack(7, 8, 64)
    calib = build_calibset(7, 32, 64, 64, visual_fraction=0.8)
    start = time.monotonic()
    res, calibrate_peak = _traced_peak(lambda: calibrate(
        stack, calib.activations, strategy="passact1", stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A,
    ))
    _, evaluate_peak = _traced_peak(lambda: evaluate(stack, res, calib))
    assert evaluate_peak <= calibrate_peak
    assert time.monotonic() - start < 5.0


def test_evaluate_rejects_result_for_another_stack():
    stack, calib, res = _calibrated(seed=15, depth=3)
    shallow = build_stack(15, 2, 32)
    with pytest.raises(ConfigError, match="lin2"):
        evaluate(shallow, res, calib)
    _, _, wide = _calibrated(seed=15, depth=3, c=64)
    with pytest.raises(ConfigError, match="lin0"):
        evaluate(stack, wide, calib)


def test_accuracy_proxy_gap_rejects_a_result_with_an_extra_layer():
    """It is evaluate's ce_gap, so it checks the result's layers as evaluate does."""
    stack, calib, res = _calibrated(seed=15, depth=3)
    with pytest.raises(ConfigError, match=r"extra \['lin2'\]"):
        accuracy_proxy_gap(build_stack(15, 2, 32), res, calib)


@pytest.mark.parametrize("strategy", ["none", "passact1", "passact2"])
def test_accuracy_proxy_gap_runs_no_backward_probe_or_layer_loss(monkeypatch, strategy):
    """evaluate's ce_gap from its block loop alone: the same float, with no per-layer work."""
    stack, calib, res = _calibrated(seed=17, depth=3, strategy=strategy)
    want = evaluate(stack, res, calib).ce_gap

    def per_layer(*args, **kwargs):
        raise AssertionError("accuracy_proxy_gap ran per-layer work")

    for module in (model, report):
        monkeypatch.setattr(module, "backward_from_trace", per_layer)
    for name in ("activation_error_probe", "apply_layer_fp", "apply_linear_quant"):  # the probe and layer losses
        monkeypatch.setattr(report, name, per_layer)
    assert accuracy_proxy_gap(stack, res, calib) == want


@pytest.mark.parametrize("layout", ["fortran", "strided"])
def test_evaluate_and_heatmaps_give_the_bytes_of_the_c_order_batch(layout):
    """A set built from a Fortran-order or channel-strided batch stores the C-order copy."""
    stack, calib, res = _calibrated(seed=27, c=64, b=6, n=16)
    acts = calib.activations
    other = np.asfortranarray(acts) if layout == "fortran" else np.repeat(acts, 2, axis=2)[:, :, ::2]
    assert not other.flags.c_contiguous
    same = CalibrationSet(other, calib.modality)
    assert evaluate(stack, res, same).to_text() == evaluate(stack, res, calib).to_text()
    for layer_index in range(len(stack.layers)):
        want = build_heatmaps(stack, calib, layer_index, seed=2, sample=1)
        got = build_heatmaps(stack, same, layer_index, seed=2, sample=1)
        assert got.selection == want.selection
        for rows in ("pre", "post"):
            assert heatmap_csv(getattr(got, rows), got.channel_indices) == heatmap_csv(
                getattr(want, rows), want.channel_indices
            )


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
    assert len(pair.selection) == len(pair.post)


@pytest.mark.parametrize("sample", [-1, 4])
def test_a_heatmap_sample_outside_the_batch_is_refused(sample):
    stack = build_stack(7, 1, 16)
    calib = build_calibset(7, 4, 8, 16, visual_fraction=0.5)
    with pytest.raises(ConfigError, match=f"sample {sample} out of range for batch 4"):
        build_heatmaps(stack, calib, layer_index=1, sample=sample)


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
    # 7 * 10 / 20 = 3.5 visual tokens, which round (half to even) to 4
    assert sum(r[1] for r in build_heatmaps(stack, calib, 1, seed=3, max_tokens=7).pre) == 4


def test_heatmap_csv_roundtrip():
    stack = build_stack(10, 1, 32)
    calib = build_calibset(10, 2, 8, 32, visual_fraction=0.5)
    pair = build_heatmaps(stack, calib, 0, seed=1)
    text = heatmap_csv(pair.pre, pair.channel_indices)
    rows = parse_heatmap_csv(text)
    assert len(rows) == len(pair.pre)
    assert rows[0][2] == pair.pre[0][2]
    assert rows[0][3] == pair.pre[0][3]


def _reference_heatmap(stack, calib, layer_index, fraction, sample):
    """The per-sample loop build_heatmaps replaced: batch sums, selection and one sample's rows."""
    sums = np.zeros(calib.tokens)
    for b in range(calib.batch):
        g = backward_token_grads(stack, calib.activations[b], ProxyLossSpec())[layer_index]
        sums += np.mean(np.abs(g), axis=1)
        if b == sample:
            g_sample = g
    selection = tuple(int(i) for i in np.sort(np.argsort(-sums, kind="stable")[: ceil(fraction * calib.tokens)]))
    modality = calib.modality[sample]

    def rows(tokens, channels):
        return [
            (int(t), int(modality[t]), float(np.mean(np.abs(g_sample[t]))), [float(abs(g_sample[t, c])) for c in channels])
            for t in tokens
        ]

    return selection, rows


@pytest.mark.parametrize("layer_index, fraction, sample", [(1, 0.5, 0), (0, 0.3, 2), (4, 0.75, 3)])
def test_heatmaps_equal_the_per_sample_reference(layer_index, fraction, sample):
    stack = build_stack(21, 2, 32)
    calib = build_calibset(21, 4, 20, 32, visual_fraction=0.6)
    selection, rows = _reference_heatmap(stack, calib, layer_index, fraction, sample)
    channels = tuple(range(32))
    pair = build_heatmaps(stack, calib, layer_index, fraction=fraction, seed=5, sample=sample)
    assert pair.selection == selection
    assert pair.channel_indices == channels
    assert pair.pre == rows(range(calib.tokens), channels)
    assert pair.post == rows(selection, channels)
    assert heatmap_csv(pair.pre, channels) == heatmap_csv(rows(range(calib.tokens), channels), channels)
    assert heatmap_csv(pair.post, channels) == heatmap_csv(rows(selection, channels), channels)
    # subsampled exports keep the same values for the tokens and channels they keep
    sub = build_heatmaps(stack, calib, layer_index, fraction=fraction, seed=5, sample=sample, max_tokens=7, max_channels=9)
    assert sub.selection == selection
    assert sub.pre == rows([r[0] for r in sub.pre], sub.channel_indices)
    assert sub.post == rows([r[0] for r in sub.post], sub.channel_indices)
    assert {r[0] for r in sub.post} <= set(selection)


@pytest.mark.parametrize("limits", [{"max_tokens": 0}, {"max_tokens": -1}, {"max_channels": 0}, {"max_channels": -1}])
def test_heatmap_rejects_limits_below_one(limits):
    stack = build_stack(11, 1, 32)
    calib = build_calibset(11, 2, 8, 32, visual_fraction=0.5)
    with pytest.raises(ConfigError, match="max"):
        build_heatmaps(stack, calib, 0, **limits)


def test_heatmap_layer_out_of_range():
    stack = build_stack(11, 1, 32)
    calib = build_calibset(11, 2, 8, 32, visual_fraction=0.5)
    with pytest.raises(ConfigError):
        build_heatmaps(stack, calib, 99)

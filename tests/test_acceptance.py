"""Acceptance suite: one test per criterion, each at its pinned tolerance.

The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
Fixtures are deterministic, so every comparison below is exactly
reproducible run to run.
"""

import statistics
import time

import numpy as np

from conftest import random_block_stack
from helpers import (
    forward_fp_from, near_zero_fraction, rand_uniform, reference_linear_quant, rounding_error_stats, unit_scale,
)
from test_calibration import conditioned_layer
from tlq.calibration import (
    RatioGrid,
    calibrate,
    layer_loss,
    result_to_text,
    search_ratio,
)
from tlq.cli import main
from tlq.distcal import CalMessage, encode_message, run_distributed_calibration
from tlq.fixtures import build_calibset, build_stack
from tlq.importance import activation_error_probe
from tlq.layers import Linear, RMSNorm
from tlq.model import (
    apply_layer_fp,
    backward_from_trace,
    backward_token_grads,
    forward_fp,
    loss_value,
    ProxyLossSpec,
)
from tlq.quantizer import QuantConfig
from tlq.report import accuracy_proxy_gap, build_heatmaps
from tlq.smoothing import SmoothScale, fuse_into_predecessor, power_scale
from tlq.tensor import Rng, rand_normal

CFG_W4 = QuantConfig(4, "per_channel")
CFG_A6 = QuantConfig(6, "per_token")


def test_c01_rounding_noise_law():
    """Measured rounding-error variance within 5% of pitch^2/12 at n in {4,6,8}."""
    start = time.monotonic()
    x = rand_uniform(Rng(101), (1000, 1000), -1.0, 1.0)
    for bits in (4, 6, 8):
        stats = rounding_error_stats(x, QuantConfig(bits))
        assert abs(stats.variance - stats.predicted_variance) <= 0.05 * stats.predicted_variance
    assert time.monotonic() - start < 10.0


def test_c02_fusion_invariance():
    """Fused smoothing equals explicit division on 100 random stacks, 1e-10 rel."""
    start = time.monotonic()
    gen = Rng(202).generator()
    for trial in range(100):
        rng = Rng(3000 + trial)
        c = int(gen.integers(4, 12))
        c_out = int(gen.integers(3, 10))
        if trial % 2 == 0:
            pred = RMSNorm("pre", rand_uniform(rng.split("g"), (c,), 0.5, 2.0), 1e-6)
            x = rand_normal(rng.split("x"), (5, c))
        else:
            c_in = int(gen.integers(3, 10))
            pred = Linear(
                "pre",
                rand_normal(rng.split("wp"), (c, c_in)),
                rand_normal(rng.split("bp"), (c,)),
            )
            x = rand_normal(rng.split("x"), (5, c_in))
        lin = Linear("lin", rand_normal(rng.split("w"), (c_out, c)), rand_normal(rng.split("b"), (c_out,)))
        s = SmoothScale(rand_uniform(rng.split("s"), (c,), 0.05, 20.0))
        explicit = apply_layer_fp(lin, apply_layer_fp(pred, x) / s.values)
        fused = apply_layer_fp(lin, apply_layer_fp(fuse_into_predecessor(pred, s), x))
        scale = max(np.max(np.abs(explicit)), 1e-30)
        assert np.max(np.abs(fused - explicit)) <= 1e-10 * scale
    assert time.monotonic() - start < 5.0


def test_c03_gradient_correctness():
    """Reverse-mode gradients match central differences to 1e-4 rel."""
    start = time.monotonic()
    h = 1e-5
    loss = ProxyLossSpec()
    for seed in range(10):
        stack = random_block_stack(400 + seed, 3, 6, act="silu" if seed % 2 else "relu")
        x = rand_normal(Rng(500 + seed), (5, 6))
        grads = backward_token_grads(stack, x, loss)
        trace = forward_fp(stack, x)
        # the difference quotient carries cancellation noise ~ eps * |L| / h,
        # which dominates on dead (relu-zero or annihilated) coordinates
        fd_floor = 1e-9 * (1.0 + abs(loss_value(trace.output, loss)))
        gen = Rng(600 + seed).generator()
        for layer_idx in range(len(stack.layers)):
            g_l = grads[layer_idx]
            x_l = trace.inputs[layer_idx]
            for _ in range(20):
                i = int(gen.integers(0, x_l.shape[0]))
                j = int(gen.integers(0, x_l.shape[1]))
                xp, xm = x_l.copy(), x_l.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (
                    loss_value(forward_fp_from(stack, layer_idx, xp), loss)
                    - loss_value(forward_fp_from(stack, layer_idx, xm), loss)
                ) / (2 * h)
                assert abs(g_l[i, j] - fd) <= 1e-4 * abs(fd) + fd_floor
    assert time.monotonic() - start < 30.0


def test_c04_first_order_estimate_converges():
    """Relative deviation of the linearized loss change shrinks as bits grow."""
    start = time.monotonic()
    monotone = 0
    for seed in range(8):
        stack = random_block_stack(700 + seed, 1, 8)
        trace = forward_fp(stack, rand_normal(Rng(800 + seed), (6, 8))[None])
        grads = backward_from_trace(stack, trace)
        devs = []
        for bits in (4, 6, 8):
            probes = activation_error_probe(stack, trace, grads, {"lin0": unit_scale(8)}, QuantConfig(bits, "per_token"))
            est, meas = (float(v[0]) for v in probes["lin0"])
            devs.append(abs(est - meas) / abs(meas))
        if devs[0] > devs[1] > devs[2]:
            monotone += 1
    assert monotone >= 7
    assert time.monotonic() - start < 10.0


def test_c05_argmin_correctness():
    """Grid argmin equals exhaustive evaluation; lands near a 5x finer grid."""
    start = time.monotonic()
    coarse = RatioGrid(0.0, 1.0, 0.05)
    fine = RatioGrid(0.0, 1.0, 0.01)
    for seed in range(50):
        lin, xs = conditioned_layer(seed)
        stat = np.max(np.abs(xs.reshape(-1, xs.shape[-1])), axis=0)
        r_c, curve = search_ratio(lin, xs, xs, stat, coarse, CFG_W4, CFG_A6)

        # independent exhaustive evaluation over the same grid
        y_fp = np.stack([xs[b] @ lin.weight.T + lin.bias for b in range(xs.shape[0])])
        best_r, best_loss = None, np.inf
        for r in coarse.points():
            scale = power_scale(stat, r)
            y_q = np.stack(
                [reference_linear_quant(lin, xs[b], scale, CFG_W4, CFG_A6) for b in range(xs.shape[0])]
            )
            loss = layer_loss(y_fp, y_q)
            if loss < best_loss * (1 - 1e-12):
                best_r, best_loss = r, loss
        assert r_c == best_r

        r_f, _ = search_ratio(lin, xs, xs, stat, fine, CFG_W4, CFG_A6)
        assert abs(r_c - r_f) <= 0.05 + 1e-9
    assert time.monotonic() - start < 60.0


ABLATION_CONFIGS = {
    "tlq": ("passact2", "topk"),
    "mean+none": ("none", "mean"),
    "max+pa2": ("passact2", "max"),
    "mean+pa2": ("passact2", "mean"),
    "topk+pa1": ("passact1", "topk"),
    "topk+none": ("none", "topk"),
}


def _ablation_gaps(seed: int) -> dict[str, float]:
    """End-to-end accuracy-proxy gaps on the pinned redundant-token fixture.

    The selection fraction matches the fixture's text share (20% of tokens),
    so gradient-guided selection isolates the informative tokens.
    """
    stack = build_stack(seed, 2, 64)
    calib = build_calibset(seed, 16, 32, 64, visual_fraction=0.8)
    gaps = {}
    for label, (strategy, stat_mode) in ABLATION_CONFIGS.items():
        res = calibrate(
            stack,
            calib.activations,
            strategy=strategy,
            stat_mode=stat_mode,
            cfg_w=CFG_W4,
            cfg_a=CFG_A6,
            fraction=0.2,
        )
        gaps[label] = accuracy_proxy_gap(stack, res, calib)
    return gaps


def test_c06_directional_ablation():
    """Selection and propagation orderings reproduce directionally over 8 seeds."""
    start = time.monotonic()
    rows = [_ablation_gaps(seed) for seed in range(8)]
    med = {k: statistics.median(r[k] for r in rows) for k in ABLATION_CONFIGS}

    # full pipeline beats the selection-free, propagation-free base
    wins = sum(r["tlq"] < r["mean+none"] for r in rows)
    assert wins >= 6
    assert med["tlq"] <= 0.9 * med["mean+none"]

    # propagation ordering at fixed token selection, in the median
    assert med["tlq"] <= med["topk+pa1"] <= med["topk+none"]

    # statistic ordering at fixed propagation: per-seed chain and strict medians
    chain = sum(r["tlq"] <= r["max+pa2"] <= r["mean+pa2"] for r in rows)
    assert chain >= 6
    assert med["tlq"] < med["max+pa2"] < med["mean+pa2"]
    # single quantized stream never loses to no propagation, per seed majority
    assert sum(r["tlq"] <= r["topk+none"] for r in rows) >= 6
    assert time.monotonic() - start < 300.0


def test_c07_distributed_equivalence():
    """Distributed calibration is bit-identical to single-context everywhere."""
    start = time.monotonic()
    stack = build_stack(0, 2, 16)
    calib = build_calibset(0, 4, 8, 16, visual_fraction=0.5)
    for strategy in ("none", "passact1", "passact2"):
        for stat_mode in ("mean", "max", "topk"):
            single = calibrate(
                stack, calib.activations, strategy=strategy, stat_mode=stat_mode,
                cfg_w=CFG_W4, cfg_a=CFG_A6,
            )
            for transport in ("in_process", "sockets"):
                dist, mem = run_distributed_calibration(
                    stack, calib.activations, workers=3, transport=transport,
                    strategy=strategy, stat_mode=stat_mode, cfg_w=CFG_W4, cfg_a=CFG_A6,
                )
                assert result_to_text(dist) == result_to_text(single), (strategy, stat_mode, transport)
                assert all(w.current_bytes == 0 for w in mem.workers)
    assert time.monotonic() - start < 180.0


def _memory_run(seed, b, n, c):
    stack = build_stack(seed, 1, c)
    calib = build_calibset(seed, b, n, c, visual_fraction=0.5)
    _, mem = run_distributed_calibration(
        stack, calib.activations, workers=3, transport="in_process",
        strategy="passact2", stat_mode="max", cfg_w=CFG_W4, cfg_a=CFG_A6,
    )
    return mem


def test_c08_memory_decomposition():
    """Per-role peaks follow the decoupled decomposition; peak beats baseline."""
    start = time.monotonic()
    mem = _memory_run(5, 8, 16, 64)
    envelope = len(encode_message(
        CalMessage(
            "layer_output", 0, 2, seq=0, layer=0, stream="fp",
            tensor=np.zeros((8, 16, 64)), count=21,
        )
    ))
    infer_peak = mem.workers[0].peak_bytes
    assert abs(infer_peak - 163840) <= envelope
    assert mem.baseline_bytes == 294912
    ratio_small = mem.max_peak() / mem.baseline_bytes
    assert ratio_small <= 0.60

    scaled = _memory_run(6, 128, 64, 256)
    ratio_big = scaled.max_peak() / scaled.baseline_bytes
    assert abs(ratio_big - ratio_small) <= 0.10
    assert time.monotonic() - start < 60.0


def test_c09_heatmap_near_zero_drop():
    """Post-selection exports contain strictly fewer near-zero-gradient tokens."""
    start = time.monotonic()
    for seed in range(8):
        stack = build_stack(seed, 2, 32)
        calib = build_calibset(seed, 4, 20, 32, visual_fraction=0.8)
        pair = build_heatmaps(stack, calib, layer_index=1, seed=seed)
        assert near_zero_fraction(pair.post) < near_zero_fraction(pair.pre)
    assert time.monotonic() - start < 30.0


def _run_pipeline(workdir) -> dict[str, bytes]:
    model = workdir / "model.ckpt"
    calib = workdir / "calib.bin"
    result = workdir / "result.txt"
    quant = workdir / "model.quant"
    report = workdir / "eval.txt"
    for argv in (
        ["gen-model", "--seed", "7", "--depth", "2", "--channels", "32", "--out", str(model)],
        ["gen-calib", "--seed", "7", "--batch", "6", "--tokens", "16", "--channels", "32",
         "--visual-fraction", "0.8", "--out", str(calib)],
        ["calibrate", "--model", str(model), "--calib", str(calib), "--preset", "tlq",
         "--bits-w", "4", "--bits-a", "6", "--out", str(result)],
        ["quantize", "--model", str(model), "--result", str(result), "--out", str(quant)],
        ["eval", "--model", str(model), "--result", str(result), "--calib", str(calib),
         "--out", str(report)],
    ):
        assert main(argv) == 0
    return {p.name: p.read_bytes() for p in (model, calib, result, quant, report)}


def test_c10_pipeline_determinism(tmp_path):
    """Two same-seed pipeline runs produce byte-identical artifacts."""
    start = time.monotonic()
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()
    artifacts_a = _run_pipeline(run_a)
    artifacts_b = _run_pipeline(run_b)
    assert artifacts_a.keys() == artifacts_b.keys()
    for name in artifacts_a:
        assert artifacts_a[name] == artifacts_b[name], name
    assert time.monotonic() - start < 120.0

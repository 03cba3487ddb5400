"""Traced run: per-layer metrics for one workload.

Each round runs one stage pass through the CLI with a span around every
stage and around the library call inside it, then replays calibrate, eval
and an in_process dist-calibrate as direct library calls with spans and
counters around the calls into each module. The replayed calibrate loop is
built from compute_token_selections, CalibrationWalk, layer_stat,
search_ratio, scale_for and fix_scale; its result_to_text bytes must equal
the CLI's calibrate output, as must the replayed eval report and dist
result. Kernel, codec, fixture and live-memory measurements run once, in
the first round.

Counts (grid points, frames, wire bytes, ledger peaks and events, pass
counts) must repeat exactly from round to round; the run reports itself
unsteady otherwise.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import tracemalloc
from statistics import median

import numpy as np

from spans import Tracer
from stages import STAGES, Ops, Pipeline
from workloads import VISUAL_FRACTION, WORKERS

KERNEL_RATIO = 0.5  # the grid point whose quantize/matmul cost is measured
MICRO_REPEATS = 5
MIN_ROUNDS = 2


def _inputs(pipe: Pipeline):
    from tlq import calibration, model
    from tlq.quantizer import QuantConfig

    stack = model.load_checkpoint(pipe.ws.model.read_bytes())
    calib = model.load_calibset(pipe.ws.calib.read_bytes())
    # options come from the CLI's own result, so the replay runs what it ran
    res = calibration.result_from_text(pipe.ws.result("calibrate").read_text())
    opts = dict(
        strategy=res.strategy,
        stat_mode=res.stat_mode,
        grid=res.grid,
        cfg_w=QuantConfig(res.bits_w, "per_channel"),
        cfg_a=QuantConfig(res.bits_a, "per_token"),
        fraction=res.fraction,
        loss=model.ProxyLossSpec(),
    )
    return stack, calib, opts


def _timed(fn, repeats: int = MICRO_REPEATS) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def replay_calibrate(tracer: Tracer, stack, acts, opts):
    """calibration.calibrate, rebuilt from its public steps with a span around each."""
    from tlq import calibration

    o = opts
    rows = []
    with tracer.patched([(calibration, "backward_token_grads", "model.backward", "model.backward_calls")]):
        with tracer.span("calibration.replay"):
            selections = None
            if o["stat_mode"] == "topk":
                with tracer.span("calibration.select"):
                    selections = calibration.compute_token_selections(stack, acts, o["fraction"], o["loss"])
            walk = calibration.CalibrationWalk(stack, acts, o["strategy"], o["cfg_w"], o["cfg_a"])
            while True:
                with tracer.span("calibration.walk"):
                    task = walk.next_linear()
                if task is None:
                    break
                sel = selections[task.index] if selections is not None else None
                with tracer.span("calibration.stat"):
                    stat = calibration.layer_stat(task.stat_inputs, o["stat_mode"], task.layer, sel)
                with tracer.span(f"calibration.search.L{task.index}"):
                    r_star, curve = calibration.search_ratio(
                        task.layer, task.q_inputs, task.fp_inputs, stat, o["grid"], o["cfg_w"], o["cfg_a"]
                    )
                scale = calibration.scale_for(o["stat_mode"], stat, r_star)
                rows.append(calibration.LayerCalibration(task.layer.name, scale, r_star, curve))
                with tracer.span("calibration.walk"):
                    walk.fix_scale(scale)
    return calibration.CalibrationResult(
        tuple(rows), o["strategy"], o["stat_mode"], o["cfg_w"].bits, o["cfg_a"].bits, o["fraction"], o["grid"]
    ), selections


def traced_evaluate(tracer: Tracer, stack, result, calib):
    from tlq import importance, model, report

    targets = [
        (report, "activation_error_probe", "report.probe", None),
        (report, "forward_fp", "report.forward", "report.forward_passes"),
        (report, "forward_quant", "report.forward", "report.forward_passes"),
        (report, "accuracy_proxy_gap", "report.ce_gap", None),
        (importance, "forward_fp", None, "report.forward_passes"),
        (importance, "backward_token_grads", None, "report.backward_passes"),
        # the forward pass inside every backward pass
        (model, "forward_fp", None, "report.forward_passes"),
    ]
    with tracer.patched(targets), tracer.span("report.evaluate"):
        return report.evaluate(stack, result, calib)


def counted_distributed(stack, acts, opts):
    """In_process dist-calibrate with every sent frame counted at its encoded size."""
    from tlq import distcal

    counts = {"frames": 0, "wire_bytes": 0}
    lock = threading.Lock()
    make_transport = distcal.make_transport

    def counting_transport(name, worker_ids):
        transport = make_transport(name, worker_ids)
        send = transport.send

        def counted_send(msg):
            size = len(distcal.encode_message(dataclasses.replace(msg, seq=0)))
            with lock:
                counts["frames"] += 1
                counts["wire_bytes"] += size
            send(msg)

        transport.send = counted_send
        return transport

    distcal.make_transport = counting_transport
    try:
        result, mem = distcal.run_distributed_calibration(
            stack, acts, workers=int(WORKERS), transport="in_process", **opts
        )
    finally:
        distcal.make_transport = make_transport
    return result, mem, counts


def once_metrics(pipe: Pipeline, ops: Ops, stack, calib, opts, selections) -> dict:
    """Kernel, codec, fixture and live-memory measurements."""
    from tlq import calibration, distcal, fixtures, model
    from tlq.quantizer import dequantize, quantize
    from tlq.smoothing import power_scale
    from tlq.tensor import matmul

    acts = calib.activations
    m = {}

    # one grid point of the first linear on its real inputs, per sample as
    # _batch_quant does it
    walk = calibration.CalibrationWalk(stack, acts, opts["strategy"], opts["cfg_w"], opts["cfg_a"])
    task = walk.next_linear()
    sel = selections[task.index] if selections is not None else None
    stat = calibration.layer_stat(task.stat_inputs, opts["stat_mode"], task.layer, sel)
    scale = power_scale(stat, KERNEL_RATIO).values
    lin = task.layer
    w_hat_t = dequantize(quantize(lin.weight * scale, opts["cfg_w"])).T
    xs = task.q_inputs
    x_hats = [dequantize(quantize(xs[b] / scale, opts["cfg_a"])) for b in range(xs.shape[0])]
    m["quantizer.qdq_s"] = _timed(
        lambda: [dequantize(quantize(xs[b] / scale, opts["cfg_a"])) for b in range(xs.shape[0])]
    )
    m["tensor.matmul_s"] = _timed(lambda: [matmul(x, w_hat_t) for x in x_hats])
    b, n, c_in = xs.shape
    c_out = lin.weight.shape[0]
    m["kernel.flops_per_grid_point"] = 2 * b * n * c_in * c_out
    # x read, the dequantized weight read once per sample, y_q written
    m["kernel.bytes_per_grid_point"] = 8 * b * (n * c_in + c_out * c_in + n * c_out)

    y_q = np.stack([matmul(x, w_hat_t) + lin.bias for x in x_hats])
    frame = distcal.CalMessage("layer_output", 0, 1, seq=0, layer=task.index, stream="q",
                               ratio=KERNEL_RATIO, tensor=y_q, count=len(opts["grid"].points()))
    m["distcal.frame_codec_s"] = _timed(lambda: distcal.decode_message(distcal.encode_message(frame)[4:]))
    back = distcal.decode_message(distcal.encode_message(frame)[4:])
    ops.record("frame_codec", None if np.array_equal(back.tensor, y_q) else "y_q frame did not round-trip")

    ckpt, calib_bytes = pipe.ws.model.read_bytes(), pipe.ws.calib.read_bytes()
    m["model.codec_s"] = _timed(lambda: (
        model.save_checkpoint(model.load_checkpoint(ckpt)),
        model.save_calibset(model.load_calibset(calib_bytes)),
    ))
    result = calibration.result_from_text(pipe.ws.result("calibrate").read_text())
    m["calibration.result_codec_s"] = _timed(
        lambda: calibration.result_from_text(calibration.result_to_text(result))
    )

    wl, seed = pipe.wl, pipe.seed

    def build():
        return (
            fixtures.build_stack(seed, wl.depth, wl.channels),
            fixtures.build_calibset(seed, wl.batch, wl.tokens, wl.channels,
                                    visual_fraction=float(VISUAL_FRACTION)),
        )

    m["fixtures.build_s"] = _timed(build, 3)
    built_stack, built_calib = build()
    same = model.save_checkpoint(built_stack) == ckpt and model.save_calibset(built_calib) == calib_bytes
    ops.record("fixtures", None if same else "built fixtures differ from gen-model/gen-calib files")

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        calibration.calibrate(stack, acts, **opts)
        m["calibration.live_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return m


def run_round(pipe: Pipeline, ops: Ops, tracer: Tracer, first: bool) -> dict:
    from tlq import calibration, distcal, report

    lib_calls = [
        (calibration, "calibrate", "lib.calibrate", None),
        (distcal, "run_distributed_calibration", "lib.dist", None),
        (calibration, "quantize_with_result", "lib.quantize", None),
        (report, "evaluate", "lib.eval", None),
    ]
    with tracer.patched(lib_calls):
        stage_s = pipe.run_pass(around=lambda stage: tracer.span(f"cli.{stage}"))
    m = {f"cli.overhead_s.{s}": tracer.self_total(f"cli.{s}") for s in STAGES}
    m["distcal.overhead_s"] = stage_s["dist_inproc"] - stage_s["calibrate"]
    m["distcal.transport_s"] = stage_s["dist_sockets"] - stage_s["dist_inproc"]

    stack, calib, opts = _inputs(pipe)
    acts = calib.activations
    expected = pipe.ws.result("calibrate").read_bytes()

    result, selections = replay_calibrate(tracer, stack, acts, opts)
    same = calibration.result_to_text(result).encode() == expected
    ops.record("traced_calibrate", None if same else "replayed result bytes differ from calibrate's")
    replay = tracer.total("calibration.replay")
    searches = sorted({s.name for s in tracer.spans if s.name.startswith("calibration.search.L")},
                      key=lambda name: int(name.rsplit("L", 1)[1]))
    for name in searches:
        m[name.replace("calibration.search.", "calibration.search_s.")] = tracer.total(name)
    for phase in ("select", "walk", "stat"):
        m[f"calibration.{phase}_s"] = tracer.total(f"calibration.{phase}")
    m["calibration.search_s"] = sum(tracer.total(n) for n in searches)
    m["calibration.unattributed_s"] = replay - sum(
        m[f"calibration.{p}_s"] for p in ("select", "walk", "stat", "search"))
    m["calibration.trace_overhead_s"] = replay - tracer.total("lib.calibrate")
    m["calibration.grid_points"] = sum(len(row.loss_curve) for row in result.layers)
    m["model.backward_s"] = tracer.total("model.backward")

    rep = traced_evaluate(tracer, stack, result, calib)
    same = rep.to_text().encode() == pipe.ws.eval.read_bytes()
    ops.record("traced_eval", None if same else "replayed eval report differs from eval's")
    m["report.evaluate_s"] = tracer.total("report.evaluate")
    m["report.probe_s"] = tracer.total("report.probe")
    m["report.forward_s"] = tracer.total("report.forward", parent_name="report.evaluate")
    m["report.ce_gap_s"] = tracer.total("report.ce_gap")
    m["report.replay_s"] = tracer.self_total("report.evaluate")

    dist_result, mem, frames = counted_distributed(stack, acts, opts)
    same = (calibration.result_to_text(dist_result).encode() == expected
            and mem.to_text().encode() == pipe.ws.memory("dist_inproc").read_bytes())
    ops.record("traced_dist", None if same else "counted dist run differs from dist-calibrate's files")
    m["distcal.frames"] = frames["frames"]
    m["distcal.wire_bytes"] = frames["wire_bytes"]
    for w in mem.workers:
        m[f"distcal.ledger_peak_bytes.w{w.worker}"] = w.peak_bytes
        m[f"distcal.ledger_events.w{w.worker}"] = w.events

    for name in ("model.backward_calls", "report.forward_passes", "report.backward_passes"):
        m[name] = tracer.counts[name]
    if first:
        m.update(once_metrics(pipe, ops, stack, calib, opts, selections))
    return m


def run_traced(pipe: Pipeline, ops: Ops, deadline: float):
    """Rounds until the deadline (at least MIN_ROUNDS): medians, unsteady counts, spans."""
    rounds, tracers = [], []
    round_s = 0.0
    while len(rounds) < MIN_ROUNDS or time.perf_counter() + round_s < deadline:
        start = time.perf_counter()
        tracer = Tracer(run=f"{pipe.wl.name}-s{pipe.seed}-r{len(rounds)}")
        rounds.append(run_round(pipe, ops, tracer, first=not rounds))
        tracers.append(tracer)
        round_s = time.perf_counter() - start
    metrics, unsteady = {}, []
    for name in rounds[0]:
        values = [r[name] for r in rounds if name in r]
        if isinstance(values[0], int):  # a count, which must repeat exactly
            if len(set(values)) != 1:
                unsteady.append(f"{name} varies between rounds: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    return metrics, unsteady, tracers, len(rounds)

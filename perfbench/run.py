"""Pipeline benchmark for the tlq CLI.

    python3 perfbench/run.py --workload readme --seed 7 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
./src and driven in-process through `tlq.cli.main`. The fixture files come
from `--seed`; see workloads.py for the workloads, why each was chosen and
what is left out.

--trace 0 times every stage with tracing off and prints the end-to-end
metrics; --trace 1 prints the per-layer metrics of a traced run and writes
its spans to .perfbench_work/spans/. Both check every output byte. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median

from workloads import DEFAULT_SEED, LEFT_OUT, SECOND_SEED, WORKLOADS

MIN_PASSES = 3  # timed passes, after one untimed warm-up pass
SETUP_SLICE_S = 0.5  # set-up repeats before every pass run for this long

END_TO_END_UNITS = {
    "setup_s": "s",
    "calibrate_s": "s",
    "dist_inproc_s": "s",
    "dist_sockets_s": "s",
    "eval_s": "s",
    "ledger_peak_bytes": "B",
    "peak_rss_mib": "MiB",
    "ops_ok_share": "ratio",
}
STAGE_METRICS = {
    "calibrate": "calibrate_s",
    "dist_inproc": "dist_inproc_s",
    "dist_sockets": "dist_sockets_s",
    "eval": "eval_s",
}


# Per-layer metrics of --trace 1. The per-linear search times of the
# linears after the second (deep has eight) are printed but not in the JSON,
# so every workload reports the same names.
PER_LAYER = (
    "calibration.select_s", "model.backward_calls", "model.backward_s",
    "calibration.walk_s", "calibration.stat_s", "calibration.search_s",
    "calibration.search_s.L1", "calibration.search_s.L4", "calibration.grid_points",
    "calibration.unattributed_s", "calibration.trace_overhead_s",
    "quantizer.qdq_s", "tensor.matmul_s",
    "kernel.flops_per_grid_point", "kernel.bytes_per_grid_point",
    "distcal.frames", "distcal.wire_bytes", "distcal.frame_codec_s",
    "distcal.overhead_s", "distcal.transport_s",
    "distcal.ledger_peak_bytes.w0", "distcal.ledger_peak_bytes.w1", "distcal.ledger_peak_bytes.w2",
    "distcal.ledger_events.w0", "distcal.ledger_events.w1", "distcal.ledger_events.w2",
    "calibration.live_peak_bytes",
    "report.evaluate_s", "report.probe_s", "report.forward_s", "report.ce_gap_s",
    "report.replay_s", "report.forward_passes", "report.backward_passes",
    "cli.overhead_s.calibrate", "cli.overhead_s.dist_inproc", "cli.overhead_s.dist_sockets",
    "cli.overhead_s.quantize", "cli.overhead_s.eval",
    "model.codec_s", "calibration.result_codec_s", "fixtures.build_s",
)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.startswith("kernel.flops"):
        return "flop"
    if "bytes" in name:
        return "B"
    return "count"


def machine_record(seed: int) -> dict:
    import numpy as np

    from stages import build_key

    rec = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_max": None,
        "python": platform.python_version(),
        "numpy_blas": build_key(),
        "blas_threads": None,
        "seed": seed,
        "second_seed": SECOND_SEED,
    }
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            rec["cpu_max"] = Path(path).read_text().strip()
            break
        except OSError:
            pass
    try:
        import ctypes

        libs = Path(np.__file__).parent.parent / "numpy.libs"
        lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*.so"))))
        fn = lib.scipy_openblas_get_num_threads64_
        fn.restype = ctypes.c_int
        rec["blas_threads"] = fn()
    except (OSError, StopIteration, AttributeError):
        rec["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return rec


def import_program(root: Path):
    """tlq.cli.main from <root>/src, never from anywhere else."""
    src = root / "src"
    if not (src / "tlq" / "cli.py").is_file():
        raise SystemExit(f"error: no tlq sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import tlq
    import tlq.cli

    if Path(tlq.__file__).resolve().parent != (src / "tlq").resolve():
        raise SystemExit(f"error: tlq imported from {tlq.__file__}, not from {src}")
    return tlq.cli.main


def setup_slice(pipe, samples: list[float]) -> None:
    """Set up again and again for SETUP_SLICE_S seconds (at least once)."""
    end = time.perf_counter() + SETUP_SLICE_S
    samples.append(pipe.setup())
    while time.perf_counter() < end:
        samples.append(pipe.setup())


def measure(pipe, deadline: float) -> tuple[dict, int, int]:
    """Untraced stage passes until the deadline, each after a slice of set-ups.

    Returns median seconds per stage and of set-up, the number of timed
    passes and the number of set-ups.
    """
    from stages import STAGES, max_ledger_peak

    setups: list[float] = []
    setup_slice(pipe, setups)
    pipe.run_pass()  # warm-up: checked, not timed
    samples = {s: [] for s in STAGES}
    pass_s = 0.0
    while len(samples["calibrate"]) < MIN_PASSES or time.perf_counter() + pass_s < deadline:
        start = time.perf_counter()
        setup_slice(pipe, setups)
        for stage, seconds in pipe.run_pass().items():
            samples[stage].append(seconds)
        pass_s = time.perf_counter() - start
    metrics = {STAGE_METRICS[s]: median(v) for s, v in samples.items() if s in STAGE_METRICS}
    metrics["setup_s"] = median(setups)
    metrics["ledger_peak_bytes"] = max_ledger_peak(pipe.memory_report)
    return metrics, len(samples["calibrate"]), len(setups)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    cli_main = import_program(root)
    from stages import Ops, Pipeline, Workspace, recorded_digests

    wl = WORKLOADS[args.workload]
    start = time.perf_counter()
    deadline = start + args.seconds
    work = root / ".perfbench_work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ops = Ops()
    expected = recorded_digests(wl, args.seed)
    pipe = Pipeline(cli_main, wl, args.seed, Workspace(work), ops, expected)
    unsteady: list[str] = []
    try:
        if args.trace:
            from traced import run_traced

            pipe.setup()
            found, unsteady, tracers, rounds = run_traced(pipe, ops, deadline)
            spans_dir = root / ".perfbench_work" / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"{wl.name}-s{args.seed}.jsonl"
            with open(spans_file, "w") as f:
                for tracer in tracers:
                    tracer.dump(f)
            metrics = {k: (v, per_layer_unit(k)) for k, v in found.items()}
            listed = PER_LAYER
            summary = f"{rounds} traced rounds; spans in {spans_file.relative_to(root)}"
        else:
            found, passes, setups = measure(pipe, deadline)
            found["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            found["ops_ok_share"] = (ops.attempted - ops.failed) / ops.attempted
            metrics = {k: (found[k], u) for k, u in END_TO_END_UNITS.items()}
            listed = tuple(END_TO_END_UNITS)
            summary = f"{passes} timed passes after 1 warm-up; {setups} set-ups"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {wl.name} seed {args.seed}: {summary}; {time.perf_counter() - start:.1f} s")
    print(f"why: {wl.why}")
    for item in LEFT_OUT:
        print(f"not measured: {item}")
    print("machine " + json.dumps(machine_record(args.seed)))
    print(f"digests: {'checked against digests.json' if pipe.recorded else 'none recorded for this build and seed; checked for repeats'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(f"  {'ops_failed_share':40s} {ops.failed_share():>16.6g} ratio "
          f"({ops.failed} failed of {ops.attempted} stage calls attempted)")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    for problem in unsteady:
        print(f"UNSTEADY {problem}")

    out = {
        "correct": ops.failed == 0 and not unsteady,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in listed},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

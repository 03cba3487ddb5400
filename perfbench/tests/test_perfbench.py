"""The benchmark's own tests, at tiny shapes.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from run import END_TO_END_UNITS, PER_LAYER, measure, per_layer_unit
from spans import Span, Tracer, self_times
from stages import Ops, Pipeline, Workspace
from traced import run_traced
from workloads import WORKLOADS, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

TINY = Workload("tiny", depth=2, channels=16, batch=3, tokens=8, calibrate_args=(), why="test shape")


def _pipeline(tmp_path, expected=None):
    from tlq.cli import main

    ops = Ops()
    return Pipeline(main, TINY, 3, Workspace(tmp_path), ops, expected), ops


def test_self_time_subtracts_the_direct_children():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 3.0, 0, "r"),
        Span(2, "b", 4.0, 5.0, 0, "r"),
        Span(3, "c", 6.0, 7.0, 0, "r"),
        Span(4, "grandchild", 6.2, 6.7, 3, "r"),
    ]
    times = self_times(spans)
    assert times[0] == pytest.approx(10.0 - 2.0 - 1.0 - 1.0)
    assert times[3] == pytest.approx(0.5)
    assert times[4] == pytest.approx(0.5)


def test_tracer_nests_spans_and_restores_patched_attributes():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    tracer = Tracer("r")
    with tracer.patched([(mod, "f", "inner", "calls")]):
        with tracer.span("outer"):
            assert mod.f(1) == 2
            assert mod.f(2) == 3
    assert mod.f is orig
    outer, inner, _ = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert tracer.counts["calls"] == 2
    assert tracer.self_total("outer") == pytest.approx(tracer.total("outer") - tracer.total("inner"))
    assert tracer.total("inner", parent_name="outer") == tracer.total("inner")


def test_metric_names_and_units_are_valid_and_match_benchmark_json():
    names = list(END_TO_END_UNITS) + list(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in list(END_TO_END_UNITS.values()) + [per_layer_unit(n) for n in PER_LAYER]:
        assert UNIT.fullmatch(unit), unit
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [per_layer_unit(n) for n in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_clean_pass_fails_nothing_and_repeats_its_digests(tmp_path):
    pipe, ops = _pipeline(tmp_path)
    pipe.setup()
    pipe.run_pass()
    first = dict(pipe.expected)
    pipe.run_pass()
    assert ops.failures == []
    assert ops.attempted == 2 + 2 * 5
    assert pipe.expected == first
    assert set(first) == {"checkpoint", "calibset", "result", "memory", "artifact", "eval"}


def test_forced_digest_mismatch_shows_up_in_ops_failed_share(tmp_path):
    pipe, ops = _pipeline(tmp_path, expected={"result": "0" * 32})
    pipe.setup()
    pipe.run_pass()
    # calibrate and both dist-calibrate results carry the forced digest
    assert [f.split(":")[0] for f in ops.failures] == ["calibrate", "dist_inproc", "dist_sockets"]
    assert ops.failed_share() == pytest.approx(3 / 7)


def test_untraced_and_traced_runs_report_every_metric(tmp_path):
    pipe, ops = _pipeline(tmp_path)
    pipe.setup()
    found, passes, setups = measure(pipe, time.perf_counter())
    assert passes == 3 and setups >= 4
    assert {"setup_s", "calibrate_s", "dist_sockets_s", "eval_s"} <= set(found)
    assert found["ledger_peak_bytes"] > 0
    metrics, unsteady, tracers, rounds = run_traced(pipe, ops, time.perf_counter())
    assert rounds == 2 and unsteady == []
    assert set(PER_LAYER) <= set(metrics)
    assert metrics["calibration.grid_points"] == 2 * 21
    assert ops.failures == []


def test_without_program_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "readme", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Smoke runs of the experiment scripts under scripts/, as subprocesses, the mutation runner's table and the tracer."""

import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_memory_demo_prints_peak_summaries():
    out = _run("memory_demo.py")
    assert out.count("tlq-memory-report v1") == 2
    assert out.count("max worker peak / baseline = ") == 2
    assert out.count("calibrate live peak (tracemalloc) ") == 2
    assert out.count("evaluate live peak (tracemalloc) ") == 2
    assert out.count("selection pass live peak (tracemalloc) ") == 2


def test_run_ablation_prints_medians():
    out = _run("run_ablation.py", "--seeds", "1", "--channels", "16", "--batch", "4", "--tokens", "8")
    assert "medians over seeds (lower is better):" in out
    assert "mean+none (base)   " in out and "(+0.0% vs base)" in out


def test_run_mutants_kills_one_mutant_with_one_test():
    out = _run("run_mutants.py", "--mutant", "quantize-round-offset", "--test", "tests/test_quantizer.py::test_hand_case_n4")
    row = out.splitlines()[1].split()
    assert row[:2] == ["quantize-round-offset", "killed"]
    assert row[3] == "tests/test_quantizer.py::test_hand_case_n4"
    assert out.endswith("killed 1 of 1\n")


def test_every_mutant_edits_one_place_of_a_covered_module():
    runner = runpy.run_path(str(ROOT / "scripts" / "run_mutants.py"))
    mutants, covering = runner["MUTANTS"], runner["COVERING"]
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.module in covering, m.name
        assert (ROOT / "src" / "tlq" / f"{m.module}.py").read_text().count(m.old) == 1, m.name


def test_line_trace_lists_the_raises_that_one_test_file_leaves_unrun():
    env = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")  # loading hypothesis's plugin alone costs ~1 s
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "line_trace.py"), "-p", "no:cacheprovider", "tests/test_fixtures.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr  # the tests pass, and some raise never ran
    head, rows = done.stdout.split(" raise statement(s) in src/tlq that no test ran:\n")
    assert " passed" in head and " failed" not in head
    assert len(rows.splitlines()) == int(head.split()[-1])
    # test_fixtures builds no smoothing scale
    assert re.search(r"^src/tlq/smoothing\.py:\d+: raise ShapeError\(f\"smoothing scale must be rank 1", rows, re.M)
    assert "src/tlq/fixtures.py:" not in rows  # it runs every check of its own module

"""Smoke runs of the experiment scripts under scripts/, as subprocesses."""

import os
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

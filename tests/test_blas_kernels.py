"""The pipeline's internal equalities under two forced OpenBLAS kernels.

OpenBLAS picks its gemm kernel per CPU, and `OPENBLAS_CORETYPE` forces one
when the library is a DYNAMIC_ARCH build. Another kernel may give other
bytes, so this test never compares bytes across kernels. Under each kernel
it checks what README's Determinism section says holds everywhere: both
transports' distributed results equal the single-context result, and the
two transports' memory reports are equal.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
KERNELS = ("Haswell", "Sandybridge")


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return blas.get("name") == "scipy-openblas" and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def _has_avx2() -> bool:
    """Forcing Haswell on a CPU without AVX2 would end in an illegal instruction."""
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    platform.machine() != "x86_64" or not _dynamic_openblas() or not _has_avx2(),
    reason="needs x86_64 with AVX2 and numpy's DYNAMIC_ARCH OpenBLAS",
)

# one process per kernel: the kernel is chosen when numpy loads OpenBLAS;
# it prints the kernel OpenBLAS reports, then runs each CLI stage in order
_DRIVER = """
import ctypes, glob, json, os, sys
import numpy as np
from tlq.cli import main

libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
name = "unknown"
for path in libs:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        if hasattr(lib, symbol):
            getattr(lib, symbol).restype = ctypes.c_char_p
            name = getattr(lib, symbol)().decode()
print(name)
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"stage failed: {argv}")
"""


def _stages(d: Path) -> list:
    model, calib = str(d / "model.ckpt"), str(d / "calib.bin")
    cal = ["--model", model, "--calib", calib, "--preset", "tlq", "--bits-w", "4", "--bits-a", "6"]
    dist = [
        ["dist-calibrate", *cal, "--transport", transport,
         "--out", str(d / f"{transport}.txt"), "--memory-report", str(d / f"{transport}.mem")]
        for transport in ("in_process", "sockets")
    ]
    return [
        ["gen-model", "--seed", "7", "--depth", "2", "--channels", "32", "--out", model],
        ["gen-calib", "--seed", "7", "--batch", "8", "--tokens", "16", "--channels", "32", "--out", calib],
        ["calibrate", *cal, "--out", str(d / "single.txt")],
        *dist,
        ["eval", "--model", model, "--result", str(d / "single.txt"), "--calib", calib,
         "--out", str(d / "report.txt")],
    ]


@pytest.mark.parametrize("kernel", KERNELS)
def test_internal_equalities_hold_under_a_forced_kernel(tmp_path, kernel):
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(_stages(tmp_path))],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == kernel
    single = (tmp_path / "single.txt").read_text()
    assert (tmp_path / "in_process.txt").read_text() == single
    assert (tmp_path / "sockets.txt").read_text() == single
    assert (tmp_path / "in_process.mem").read_text() == (tmp_path / "sockets.mem").read_text()
    assert (tmp_path / "report.txt").read_text().startswith("tlq-eval-report v1\n")

"""Drives the tlq CLI in-process, times each stage and checks every output byte.

One pass runs calibrate, dist-calibrate on both transports, quantize and
eval, in that order, on files made by gen-model and gen-calib. A stage call
fails when it exits non-zero or when one of its outputs fails a byte check:

* both dist-calibrate results equal calibrate's result byte for byte, and
  their memory reports equal each other;
* every output repeats the bytes of the first pass of the run, and equals
  the digest recorded in digests.json for this numpy/BLAS build, workload
  and seed, when one is recorded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from workloads import BITS, VISUAL_FRACTION, WORKERS, Workload

STAGES = ("calibrate", "dist_inproc", "dist_sockets", "quantize", "eval")
TRANSPORTS = {"dist_inproc": "in_process", "dist_sockets": "sockets"}
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


class Ops:
    """Stage calls attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problem: str | None) -> bool:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{name}: {problem}")
        return problem is None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


class Workspace:
    def __init__(self, root: Path):
        self.root = root
        self.model = root / "model.ckpt"
        self.calib = root / "calib.bin"
        self.artifact = root / "model.quant"
        self.eval = root / "eval.txt"

    def result(self, stage: str) -> Path:
        return self.root / f"result.{stage}.txt"

    def memory(self, stage: str) -> Path:
        return self.root / f"memory.{stage}.txt"

    def outputs(self):
        yield from (self.result(s) for s in ("calibrate", *TRANSPORTS))
        yield from (self.memory(s) for s in TRANSPORTS)
        yield from (self.artifact, self.eval)


def call_cli(cli_main, argv: list[str]) -> tuple[int, float, str]:
    """Run `tlq <argv>` in this process: (exit code, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli_main(argv)
        except Exception as exc:  # a traceback is a failed call, not a benchmark crash
            code = -1
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue().strip()


def gen_argv(wl: Workload, seed: int, ws: Workspace) -> tuple[list[str], list[str]]:
    model = ["gen-model", "--seed", str(seed), "--depth", str(wl.depth),
             "--channels", str(wl.channels), "--out", str(ws.model)]
    calib = ["gen-calib", "--seed", str(seed), "--batch", str(wl.batch),
             "--tokens", str(wl.tokens), "--channels", str(wl.channels),
             "--visual-fraction", VISUAL_FRACTION, "--out", str(ws.calib)]
    return model, calib


def stage_argv(stage: str, wl: Workload, ws: Workspace) -> list[str]:
    common = ["--model", str(ws.model), "--calib", str(ws.calib), "--preset", "tlq",
              *BITS, *wl.calibrate_args, "--out", str(ws.result(stage))]
    if stage == "calibrate":
        return ["calibrate", *common]
    if stage in TRANSPORTS:
        return ["dist-calibrate", *common, "--workers", WORKERS,
                "--transport", TRANSPORTS[stage], "--memory-report", str(ws.memory(stage))]
    if stage == "quantize":
        return ["quantize", "--model", str(ws.model), "--result", str(ws.result("calibrate")),
                "--out", str(ws.artifact)]
    if stage == "eval":
        return ["eval", "--model", str(ws.model), "--result", str(ws.result("calibrate")),
                "--calib", str(ws.calib), "--out", str(ws.eval)]
    raise ValueError(f"unknown stage {stage!r}")


def build_key() -> str:
    """Identifies the numeric build whose output bytes digests.json records."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy-{np.__version__}/{blas['name']}-{blas['version']}"


def recorded_digests(wl: Workload, seed: int) -> dict | None:
    if not DIGESTS_FILE.is_file():
        return None
    table = json.loads(DIGESTS_FILE.read_text())
    return table.get(build_key(), {}).get(wl.name, {}).get(str(seed))


class Pipeline:
    """One workload's fixtures and stage passes, with the byte gate."""

    def __init__(self, cli_main, wl: Workload, seed: int, ws: Workspace, ops: Ops,
                 expected: dict | None):
        self.cli_main = cli_main
        self.wl = wl
        self.seed = seed
        self.ws = ws
        self.ops = ops
        # digests every pass must reproduce; filled from the first pass when
        # nothing is recorded for this build, workload and seed
        self.expected = dict(expected or {})
        self.recorded = expected is not None

    def _check(self, name: str, code: int, err: str, outputs: dict[str, bytes | None]) -> bool:
        if code != 0:
            return self.ops.record(name, f"exit {code}: {err}")
        for key, data in outputs.items():
            if data is None:
                return self.ops.record(name, f"{key} was not written")
            got = digest(data)
            want = self.expected.setdefault(key, got)
            if got != want:
                return self.ops.record(name, f"{key} digest {got} != {want}")
        return self.ops.record(name, None)

    def setup(self) -> float:
        """gen-model + gen-calib, then load both files; returns seconds."""
        from tlq import model

        for path in (self.ws.model, self.ws.calib):
            path.unlink(missing_ok=True)
        argv_model, argv_calib = gen_argv(self.wl, self.seed, self.ws)
        start = time.perf_counter()
        code_m, _, err_m = call_cli(self.cli_main, argv_model)
        code_c, _, err_c = call_cli(self.cli_main, argv_calib)
        ckpt = self.ws.model.read_bytes() if code_m == 0 else b""
        calib = self.ws.calib.read_bytes() if code_c == 0 else b""
        if code_m == 0 and code_c == 0:
            model.load_checkpoint(ckpt)
            model.load_calibset(calib)
        seconds = time.perf_counter() - start
        self._check("gen-model", code_m, err_m, {"checkpoint": ckpt})
        self._check("gen-calib", code_c, err_c, {"calibset": calib})
        return seconds

    def run_pass(self, around=None) -> dict[str, float]:
        """Every stage once; returns stage seconds. `around(stage)` may wrap each call."""
        for path in self.ws.outputs():
            path.unlink(missing_ok=True)
        times, runs = {}, {}
        for stage in STAGES:
            ctx = around(stage) if around is not None else contextlib.nullcontext()
            with ctx:
                code, seconds, err = call_cli(self.cli_main, stage_argv(stage, self.wl, self.ws))
            times[stage], runs[stage] = seconds, (code, err)

        def read(path: Path) -> bytes | None:
            return path.read_bytes() if path.is_file() else None

        self._check("calibrate", *runs["calibrate"], {"result": read(self.ws.result("calibrate"))})
        for stage in TRANSPORTS:
            # the shared keys make both transports match calibrate and each other
            self._check(stage, *runs[stage],
                        {"result": read(self.ws.result(stage)), "memory": read(self.ws.memory(stage))})
        self._check("quantize", *runs["quantize"], {"artifact": read(self.ws.artifact)})
        self._check("eval", *runs["eval"], {"eval": read(self.ws.eval)})
        self.memory_report = read(self.ws.memory("dist_inproc")) or b""
        return times


def max_ledger_peak(memory_report: bytes) -> int:
    """Largest worker peak in a tlq-memory-report v1 file (0 if it lists none)."""
    peaks = [0]
    for line in memory_report.decode().splitlines():
        parts = line.split()
        if parts and parts[0] == "worker":
            peaks.append(int(parts[parts.index("peak") + 1]))
    return max(peaks)

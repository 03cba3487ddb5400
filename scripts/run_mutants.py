#!/usr/bin/env python3
"""Mutation runner: does tier-1 catch a deliberately broken library?

Each mutant in MUTANTS is one text edit of a file under src/tlq. For each
mutant the runner copies the repository into a temporary directory, applies
the edit there, and runs pytest (stopping at the first failure) on each
test file that covers the mutated module in turn, until one fails. A mutant
is killed when a test fails,
and survives when every test passes. It prints one table row per mutant:
the outcome, the first failing test, and the seconds the run took.

Mutants run one at a time: two test runs at once on a small host can fail
a timing- or memory-sensitive test for reasons of their own.

Usage: python scripts/run_mutants.py [--mutant NAME ...] [--test NODE ...]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work")
TIMEOUT_S = 600.0  # a mutant whose run takes longer is counted as killed by a hang

# module -> the tier-1 test files that cover it
COVERING = {
    "quantizer": ("tests/test_quantizer.py", "tests/test_calibrate_reference.py"),
    "model": ("tests/test_model.py", "tests/test_input_contract.py", "tests/test_acceptance.py"),
    "calibration": (
        "tests/test_calibration.py", "tests/test_model.py", "tests/test_smoothing.py", "tests/test_importance.py",
        "tests/test_calibrate_reference.py", "tests/test_acceptance.py",
    ),
    "importance": (
        "tests/test_importance.py", "tests/test_report.py", "tests/test_calibrate_reference.py",
        "tests/test_acceptance.py",
    ),
    "report": ("tests/test_report.py", "tests/test_acceptance.py"),
    "layers": ("tests/test_model.py", "tests/test_fixtures.py", "tests/test_acceptance.py"),
    "smoothing": (
        "tests/test_smoothing.py", "tests/test_model.py", "tests/test_calibration.py", "tests/test_acceptance.py",
    ),
    "distcal": ("tests/test_distcal.py", "tests/test_mutations.py", "tests/test_acceptance.py"),
    "fixtures": ("tests/test_fixtures.py", "tests/test_acceptance.py"),
    "cli": ("tests/test_cli.py", "tests/test_mutations.py", "tests/test_acceptance.py", "tests/test_scripts.py"),
}


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # src/tlq/<module>.py, and the COVERING key
    old: str  # must occur exactly once in the module
    new: str


MUTANTS = (
    Mutant("tie-tolerance-1e-9", "calibration", "TIE_REL_TOL = 1e-12", "TIE_REL_TOL = 1e-9"),
    Mutant(
        "sqrt-stat-no-weight-floor", "calibration",
        "/ np.maximum(w_absmax, DEFAULT_SCALE_FLOOR))", "/ w_absmax)",
    ),
    Mutant(
        "heatmap-k-vis-truncated", "report",
        "k_vis = round(max_tokens * visual.shape[0]", "k_vis = int(max_tokens * visual.shape[0]",
    ),
    Mutant(
        "probe-delta-in-scaled-space", "importance",
        "            delta *= s\n            delta -= x_l\n", "            delta -= x_l / s\n            delta *= s\n",
    ),
    Mutant("top-tokens-round", "importance", "k = ceil(fraction * n)", "k = round(fraction * n)"),
    Mutant(
        "rmsnorm-backward-no-eps", "model",
        "    u = g_out * layer.gain\n",
        "    u = g_out * layer.gain\n    saved = np.sqrt(np.mean(x * x, axis=-1, keepdims=True))\n",
    ),
    Mutant(
        "backward-sigmoid-of-previous-silu", "model",
        "trace.saved[l], g)", "trace.saved[l - 3 if isinstance(stack.layers[l], Activation) else l], g)",
    ),
    Mutant(
        "backward-r-of-another-rmsnorm", "model",
        "trace.saved[l], g)", "trace.saved[l - 3 if isinstance(stack.layers[l], RMSNorm) else l], g)",
    ),
    Mutant(
        "backward-stops-above-lowest-kept", "model",
        "min(keep, default=n) - 1, -1)", "min(keep, default=n), -1)",
    ),
    Mutant(
        "selection-keep-off-by-one", "calibration",
        "keep = [i for i, _ in stack.linears()]", "keep = [i + 1 for i, _ in stack.linears()]",
    ),
    Mutant("eval-keep-off-by-one", "report", "keep=[i for i, _ in linears]", "keep=[i - 1 for i, _ in linears]"),
    Mutant(
        "quantize-round-offset", "quantizer",
        "    t += 0.5\n    np.floor(t, out=t)\n    np.copysign", "    t += 0.4999999\n    np.floor(t, out=t)\n    np.copysign",
    ),
    Mutant(
        "probe-estimate-next-gradient", "importance",
        "zip(stack.layers, trace.inputs, grads)", "zip(stack.layers, trace.inputs, grads[1:])",
    ),
    Mutant("probe-measured-sign", "importance", "[tail, x_l + delta]", "[tail, x_l - delta]"),
    Mutant("probe-unscaled-quantization", "importance", "delta = x_l / s", "delta = x_l * 1.0"),
    Mutant(
        "probe-joins-after-its-layer", "importance",
        "            tail = np.concatenate([tail, x_l + delta])\n        tail = apply_layer_fp(layer, tail)\n",
        "        tail = apply_layer_fp(layer, tail)\n"
        "        if isinstance(layer, Linear):\n            tail = np.concatenate([tail, x_l + delta])\n",
    ),
    Mutant("probe-slice-next-linear", "importance", "tail[j * k : (j + 1) * k]", "tail[(j + 1) * k : (j + 2) * k]"),
    Mutant(
        "importance-sums-last-sample", "importance",
        "sums = rows if sums is None else [t + r for t, r in zip(sums, rows)]", "sums = rows",
    ),
    Mutant("channel-mean-abs-signed", "importance", "np.mean(np.abs(g), axis=1)", "np.mean(g, axis=1)"),
    Mutant("channel-mean-abs-squared", "importance", "np.mean(np.abs(g), axis=1)", "np.mean(g * g, axis=1)"),
    Mutant("check-input-keeps-layout", "model", "return np.ascontiguousarray(x)  # layout", "return x  # layout"),
    Mutant("loss-grad-unnormalized", "model", "        return y / n\n", "        return y\n"),
    Mutant("qmax-off-by-one", "quantizer", "return 2 ** (self.bits - 1) - 1", "return 2 ** (self.bits - 1)"),
    Mutant(
        "eval-mse-per-channel", "report", "sample_sums(d * d) / acts.shape[1]", "sample_sums(d * d) / acts.shape[2]",
    ),
    Mutant("passact2-carried-by-fp", "calibration", '"passact2": {"main": "q"}', '"passact2": {"main": "fp"}'),
    Mutant(
        "walk-fp-q-inputs-swapped", "calibration",
        "LinearTask(self._idx, layer, streams[-1], streams[0], streams[-1])",
        "LinearTask(self._idx, layer, streams[-1], streams[-1], streams[0])",
    ),
    Mutant("eval-reference-always-fp", "report", 'fp_own, q_own = carriers[0] == "fp",', "fp_own, q_own = True,"),
    Mutant("eval-sum-pairwise", "report", "float(np.add.accumulate(v)[-1])", "float(np.sum(v))"),
    Mutant(
        "ce-labels-from-quantized", "report",
        'ProxyLossSpec("ce_pseudo", np.argmax(y_fp, axis=-1))', 'ProxyLossSpec("ce_pseudo", np.argmax(y_q, axis=-1))',
    ),
    Mutant("layer-loss-sum", "calibration", "return float(np.mean(_sq_diff_sums(y_fp, y_q)))",
           "return float(np.sum(_sq_diff_sums(y_fp, y_q)))"),
    Mutant(
        "dist-reported-loss-negated", "distcal",
        "points = ((rep.ratio, rep.loss) for rep in reports)", "points = ((rep.ratio, -rep.loss) for rep in reports)",
    ),
    Mutant(
        "dist-curve-freed-once", "distcal",
        'account.free(16 * len(curve), f"curve[L{layer}]")', 'account.free(16, f"curve[L{layer}]")',
    ),
    Mutant("dist-crc-unchecked", "distcal", "if zlib.crc32(fields[\"tensor\"]) != crc:", "if False:"),
    Mutant(
        "coord-scale-check-off", "distcal",
        "if not np.array_equal(power_scale(stat, fixed.ratio).values, fixed.tensor):", "if False:",
    ),
    Mutant(
        "ratio-fixed-curve-unchecked", "distcal",
        "if fault := row_fault(points, fixed.curve, fixed.ratio):", "if fault := None:",
    ),
    Mutant("fp-ratio-unchecked", "distcal", "if fp.ratio is not None:", "if False:"),
    Mutant("seq-gap-allowed", "distcal", "if msg.seq != last + 1:", "if msg.seq <= last:"),
    Mutant(
        "exit-keeps-ends-open", "distcal",
        "        finally:  # as a process's exit would: a peer still waiting on this worker ends at once\n"
        "            chans.close_ends(wid)\n",
        "",
    ),
    Mutant("coordinator-error-wrapped", "distcal", "        if wid == COORDINATOR:\n            raise exc\n", ""),
    Mutant(
        "in-process-wait-ignores-close", "distcal", "lambda: chan or key in self._closed, self.timeout,",
        "lambda: chan, self.timeout,",
    ),
    Mutant(
        "sockets-close-without-shutdown", "distcal",
        "                self._ends[(worker, peer)].shutdown(socket.SHUT_RDWR)\n", "                pass\n",
    ),
    Mutant("cli-oserror-traceback", "cli", "    except OSError as exc:\n", "    except () as exc:\n"),
    Mutant(
        "runtime-error-exits-1", "cli",
        '        print(f"error: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"error: {exc}", file=sys.stderr)\n        return 1\n',
    ),
    Mutant("warning-printed-with-source", "cli", "            warnings.showwarning = _print_warning\n", ""),
    Mutant("fold-in-stack-order", "calibration", "for i in reversed(range(len(out))):", "for i in range(len(out)):"),
    Mutant(
        "result-negative-layers", "calibration",
        '_count(r.next("layers"), "layers")', '_parse(int, r.next("layers"), "layers")',
    ),
    Mutant(
        "result-negative-curve", "calibration",
        '_count(r.next("curve"), f"curve length', '_parse(int, r.next("curve"), f"curve length',
    ),
    Mutant("row-curve-off-grid", "calibration", "if tuple(r for r, _ in curve) != points:", "if False:"),
    Mutant("select-ratio-loss-unchecked", "calibration", "if not all(loss >= 0.0 for _, loss in curve):", "if False:"),
    Mutant(
        "row-ratio-not-minimizer", "calibration",
        "None if ratio == select_ratio(curve) else", "None if select_ratio(curve) is not None else",
    ),
    Mutant("result-origin-unchecked", "calibration", 'if r.next("origin") != origin:', 'if r.next("origin") is None:'),
    Mutant("result-scale-count-unchecked", "calibration", "if values.shape[0] != count:", "if False:"),
    Mutant("calibset-non-finite-unchecked", "model", "if not np.isfinite(acts).all():", "if False:"),
    Mutant("reader-text-decode-unhandled", "model", "except UnicodeDecodeError as exc:", "except () as exc:"),
    Mutant("reader-trailing-unchecked", "model", "if self.pos != len(self.data):", "if False:"),
    Mutant("cli-read-missing-unchecked", "cli", "    if not p.is_file():\n", "    if False:\n"),
    Mutant("cli-out-dir-unchecked", "cli", "if not p.parent.exists():", "if False:"),
    Mutant("rmsnorm-eps-unbounded", "layers", 'if not 0 < self.eps < float("inf"):', "if not 0 < self.eps:"),
    Mutant(
        "smooth-scale-allows-inf", "smoothing",
        "if not np.all(np.isfinite(self.values)) or not np.all(self.values > 0):", "if not np.all(self.values > 0):",
    ),
    Mutant(
        "checkpoint-codes-swapped", "model",
        'isinstance(exc, ConfigError) else "bad_dims"', 'isinstance(exc, ShapeError) else "bad_dims"',
    ),
    Mutant("artifact-flag-unchecked", "calibration", "if has_input_scale > 1:", "if False:"),
    Mutant(
        "artifact-bits-unchecked", "calibration", "        QuantConfig(bits_w)\n        QuantConfig(bits_a)\n", "        pass\n",
    ),
    Mutant("rmsnorm-gain-width-unchecked", "layers", "if layer.gain.shape[0] != in_channels:", "if False:"),
    Mutant("stack-names-may-repeat", "layers", "if len(set(names)) != len(names):", "if False:"),
    Mutant("heatmap-sample-unchecked", "report", "if not 0 <= sample < calib.batch:", "if False:"),
    Mutant("config-overflow-unhandled", "cli", "    except OverflowError:\n", "    except ():\n"),
    Mutant("transport-name-unchecked", "distcal", 'if name == "sockets":', "if True:"),
    Mutant(
        "result-row-rule-off", "calibration",
        "if fault := row_fault(points, row.loss_curve, row.ratio):", "if fault := None:",
    ),
    Mutant("rmsnorm-gain-rank-unchecked", "layers", "if self.gain.ndim != 1:", "if False:"),
    Mutant("linear-weight-rank-unchecked", "layers", "if self.weight.ndim != 2:", "if False:"),
    Mutant("linear-bias-shape-unchecked", "layers", "if self.bias.shape != (self.weight.shape[0],):", "if False:"),
    Mutant("activation-fn-unchecked", "layers", "if self.fn not in ACT_FNS:", "if False:"),
    Mutant("stack-zero-width-allowed", "layers", "if 0 in (widths := self.widths()):",
           "if (widths := self.widths()) is None:"),
    Mutant("calibset-rank-unchecked", "model", "if self.activations.ndim != 3:", "if False:"),
    Mutant("calibset-modality-shape-unchecked", "model", "if self.modality.shape != self.activations.shape[:2]:",
           "if False:"),
    Mutant("stack-input-rank-unchecked", "model", "if x.ndim not in (2, 3):", "if False:"),
    Mutant("quantized-weight-scale-unchecked", "model", "if scale.values.shape != (layer.weight.shape[1],):",
           "if False:"),
    Mutant("checkpoint-name-length-unchecked", "model", "if len(name) > 0xFFFF:", "if False:"),
    Mutant("smooth-scale-rank-unchecked", "smoothing", "if self.values.ndim != 1:", "if False:"),
    Mutant("power-scale-rank-unchecked", "smoothing", "if x_stat.ndim != 1:", "if False:"),
    Mutant(
        "ledger-free-zero-allowed", "distcal",
        '        if nbytes <= 0:\n            raise LedgerError(f"free must',
        '        if nbytes < 0:\n            raise LedgerError(f"free must',
    ),
    Mutant("linear-quant-no-bias", "model", "        y += layer.bias\n", ""),
    Mutant("search-skips-a-sample", "calibration", "range(0, b, samples)", "range(0, b, samples + 1)"),
    Mutant(
        "pool-rule-at-the-bound", "calibration",
        "n * c_in * c_out > POOL_MAX_GEMM", "n * c_in * c_out >= POOL_MAX_GEMM",
    ),
    Mutant("fixtures-channel-floor-15", "fixtures", "if channels < 16:", "if channels < 15:"),
    Mutant("fixtures-depth-zero-allowed", "fixtures", "if depth < 1:", "if depth < 0:"),
    Mutant("fixtures-empty-batch-allowed", "fixtures", "if batch < 1 or tokens < 1:", "if batch < 0 or tokens < 0:"),
    Mutant(
        "fixtures-visual-fraction-unbounded", "fixtures",
        "if not 0.0 <= visual_fraction <= 1.0:", "if not 0.0 <= visual_fraction:",
    ),
)


def _first_failure(output: str) -> str:
    """The node id of the first FAILED or ERROR line of pytest's short summary."""
    m = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", output, re.MULTILINE)  # a node id may hold spaces
    return m.group(1) if m else "?"


def run_mutant(mutant: Mutant, tests: tuple[str, ...]) -> tuple[str, str, float]:
    """(outcome, first failing test, seconds) of one mutant against `tests` in a temporary copy."""
    with tempfile.TemporaryDirectory(prefix="tlq-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=COPY_IGNORE)
        path = copy / "src" / "tlq" / f"{mutant.module}.py"
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"mutant {mutant.name}: its text occurs {text.count(mutant.old)} times in {path.name}")
        path.write_text(text.replace(mutant.old, mutant.new))
        # no test uses an installed pytest plugin (hypothesis runs without its own), and loading them costs ~1 s a run
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1",
                   PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        start = time.monotonic()
        for test in tests:  # one at a time: collecting the files after the first failure would cost seconds
            try:
                done = subprocess.run([*cmd, test], cwd=copy, env=env, capture_output=True, text=True,
                                      timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return "killed", f"(timeout after {TIMEOUT_S:.0f} s)", time.monotonic() - start
            if done.returncode in (1, 2):  # test failures, or errors during collection
                return "killed", _first_failure(done.stdout), time.monotonic() - start
            if done.returncode != 0:
                raise SystemExit(f"mutant {mutant.name}: pytest exited {done.returncode}\n{done.stdout}{done.stderr}")
    return "survived", "-", time.monotonic() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--mutant", action="append", help="run only this mutant (repeatable)")
    ap.add_argument("--test", action="append", help="run these pytest node ids instead of the covering files")
    args = ap.parse_args()
    by_name = {m.name: m for m in MUTANTS}
    unknown = sorted(set(args.mutant or ()) - set(by_name))
    if unknown:
        ap.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.mutant] if args.mutant else list(MUTANTS)
    width = max(len(m.name) for m in chosen)
    print(f"{'mutant':<{width}}  {'outcome':<8}  {'seconds':>7}  killed by")
    killed = 0
    for m in chosen:
        outcome, test, seconds = run_mutant(m, tuple(args.test or COVERING[m.module]))
        killed += outcome == "killed"
        print(f"{m.name:<{width}}  {outcome:<8}  {seconds:7.1f}  {test}", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Peak-memory decomposition of distributed calibration.

Runs role-decoupled calibration on two fixture sizes and prints every
worker's ledgered peak next to the analytic single-context baseline
(input + both outputs + layer weights + workspace). The infer worker should
peak at exactly layer + input + one output. Beside the ledger it prints the
live peaks of single-context `calibrate` and of `evaluate` on its result,
on the same fixture: the largest number of bytes tracemalloc saw allocated
at once, above the inputs. Last comes the live peak of one sample's `topk`
selection pass beside the ledger's "grad-pass" charge for it.

Usage: python scripts/memory_demo.py
"""

import sys
import tracemalloc

from tlq.calibration import calibrate, compute_token_selections, gradient_pass_bytes
from tlq.distcal import run_distributed_calibration
from tlq.fixtures import build_calibset, build_stack
from tlq.model import ProxyLossSpec
from tlq.quantizer import QuantConfig
from tlq.report import evaluate


def live_peak(fn):
    """fn's result and the most bytes tracemalloc saw allocated at once while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run(seed: int, batch: int, tokens: int, channels: int) -> None:
    stack = build_stack(seed, 1, channels)
    calib = build_calibset(seed, batch, tokens, channels, visual_fraction=0.5)
    opts = dict(
        strategy="passact2",
        stat_mode="max",
        cfg_w=QuantConfig(4, "per_channel"),
        cfg_a=QuantConfig(6, "per_token"),
    )
    _, mem = run_distributed_calibration(stack, calib.activations, workers=3, transport="in_process", **opts)
    result, calibrate_peak = live_peak(lambda: calibrate(stack, calib.activations, **opts))
    _, evaluate_peak = live_peak(lambda: evaluate(stack, result, calib))
    _, select_peak = live_peak(lambda: compute_token_selections(stack, calib.activations[:1], 0.5, ProxyLossSpec()))
    print(f"fixture B={batch} N={tokens} C={channels}")
    print(mem.to_text(), end="")
    ratio = mem.max_peak() / mem.baseline_bytes
    print(f"max worker peak / baseline = {ratio:.1%}")
    for stage, peak in (("calibrate", calibrate_peak), ("evaluate", evaluate_peak)):
        print(f"{stage} live peak (tracemalloc) {peak} B = {peak / mem.baseline_bytes:.1%} of baseline")
    charge = gradient_pass_bytes(stack, tokens)
    print(f"selection pass live peak (tracemalloc) {select_peak} B = {select_peak / charge:.1%} of grad-pass charge")
    print()


def main() -> int:
    run(5, 8, 16, 64)
    run(6, 128, 64, 256)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Workloads of the pipeline benchmark and why each one was chosen.

Every workload is a closed loop with one caller: the next CLI stage starts
when the previous one returns. The fixture seed comes from `--seed` (7 is
the README seed); the visual fraction is 0.8 and the ratio grid is the
tlq preset's 0:1:0.05, i.e. 21 points per linear layer.

Shapes, in the notation of the ROADMAP: depth D blocks of
(rmsnorm, linear, act), C channels, B samples of N tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7
# A seed that was not used while the benchmark or any change was written.
# Confirm a claimed gain on it before accepting the claim.
SECOND_SEED = 1009

VISUAL_FRACTION = "0.8"
BITS = ("--bits-w", "4", "--bits-a", "6")
WORKERS = "3"


@dataclass(frozen=True)
class Workload:
    name: str
    depth: int
    channels: int
    batch: int
    tokens: int
    calibrate_args: tuple[str, ...]  # options after --preset tlq and the bit widths
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "readme",
            depth=2,
            channels=64,
            batch=128,
            tokens=64,
            calibrate_args=(),
            why=(
                "The README walkthrough shape. Many small samples, so the per-sample "
                "Python loop and the memory traffic of _batch_quant dominate. Traced "
                "runs (seeds 7 and 1009) measured grid search at 87-89% of calibrate "
                "and quantize+dequantize at 3.4-3.6x the matmul time of a grid "
                "point. The ROADMAP measured a flattened-batch kernel winning at "
                "this shape (12.7 vs 14.9 ms)."
            ),
        ),
        Workload(
            "wide",
            depth=2,
            channels=256,
            batch=32,
            tokens=64,
            calibrate_args=(),
            why=(
                "Same 4 MiB y_q frames as readme, but each frame costs 4x the FLOPs "
                "(268 M vs 67 M, computed from the shapes). Traced runs (seeds 7 and "
                "1009) measured quantize+dequantize at 1.4-1.5x the matmul time of a "
                "grid point, against 3.4-3.6x on readme: matmul takes about twice "
                "readme's share of the kernel, but does not dominate it. Grid search "
                "is 89% of calibrate. The ROADMAP's flattened-batch kernel loss "
                "(63.6 vs 54.0 ms) was measured at B128 C256 (16 MiB frames), not at "
                "this shape, so whether wide shows that loss is not established."
            ),
        ),
        Workload(
            "deep",
            depth=8,
            channels=64,
            batch=32,
            tokens=64,
            calibrate_args=("--strategy", "passact1"),
            why=(
                "Eight linears and two propagation streams: the walk and the dist "
                "protocol do the most work (362 frames against 92 elsewhere, for "
                "the same wire bytes). eval does the most work here: "
                "activation_error_probe reruns a forward and a backward pass per "
                "linear per sample (quadratic in depth) and traced runs measured it "
                "at 70% of evaluate, against 37-43% elsewhere. Grid search is "
                "85-86% of calibrate, against 87-89% elsewhere. Selection makes one "
                "backward call per sample, 32 here against readme's 128, through "
                "four times the blocks. This is the workload for the "
                "eval-recomputation work."
            ),
        ),
    )
}

# What the benchmark deliberately does not measure, and why.
LEFT_OUT = (
    "worker-crash workload: on the sockets transport a crashed worker makes the "
    "coordinator block forever in sendall, so the run would never end; it waits "
    "for that hang to be fixed",
    "heatmap: not a calibration stage and not on any optimisation's path, so it "
    "is not timed",
)

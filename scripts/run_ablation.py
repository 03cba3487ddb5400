#!/usr/bin/env python3
"""Directional ablation on the redundant-token fixture.

Runs every (scale statistic, propagation strategy) combination over a set of
seeds and prints the end-to-end accuracy-proxy gap (lower is better), plus
seed medians. The full pipeline (gradient-guided selection + quantized
activation propagation) should come out ahead of the selection-free,
propagation-free base configuration.

Usage: python scripts/run_ablation.py [--seeds 8] [--channels 64] [--depth 2]
"""

import argparse
import statistics
import sys

from tlq.calibration import calibrate
from tlq.fixtures import build_calibset, build_stack
from tlq.quantizer import QuantConfig
from tlq.report import accuracy_proxy_gap

CONFIGS = {
    "topk+passact2": ("passact2", "topk"),
    "max+passact2": ("passact2", "max"),
    "mean+passact2": ("passact2", "mean"),
    "topk+passact1": ("passact1", "topk"),
    "topk+none": ("none", "topk"),
    "mean+none (base)": ("none", "mean"),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=8)
    ap.add_argument("--depth", type=int, default=2)
    ap.add_argument("--channels", type=int, default=64)
    ap.add_argument("--batch", type=int, default=16)
    ap.add_argument("--tokens", type=int, default=32)
    ap.add_argument("--visual-fraction", type=float, default=0.8)
    ap.add_argument("--fraction", type=float, default=0.2, help="top-token selection share")
    ap.add_argument("--bits-w", type=int, default=4)
    ap.add_argument("--bits-a", type=int, default=6)
    args = ap.parse_args()

    cfg_w = QuantConfig(args.bits_w, "per_channel")
    cfg_a = QuantConfig(args.bits_a, "per_token")
    rows = []
    for seed in range(args.seeds):
        stack = build_stack(seed, args.depth, args.channels)
        calib = build_calibset(
            seed, args.batch, args.tokens, args.channels, visual_fraction=args.visual_fraction
        )
        gaps = {}
        for label, (strategy, stat_mode) in CONFIGS.items():
            res = calibrate(
                stack,
                calib.activations,
                strategy=strategy,
                stat_mode=stat_mode,
                cfg_w=cfg_w,
                cfg_a=cfg_a,
                fraction=args.fraction,
            )
            gaps[label] = accuracy_proxy_gap(stack, res, calib)
        rows.append(gaps)
        print(f"seed {seed}: " + "  ".join(f"{k}={v:.4g}" for k, v in gaps.items()))

    print("\nmedians over seeds (lower is better):")
    base = statistics.median(r["mean+none (base)"] for r in rows)
    for label in CONFIGS:
        med = statistics.median(r[label] for r in rows)
        print(f"  {label:18s} {med:.5g}   ({100 * (1 - med / base):+.1f}% vs base)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

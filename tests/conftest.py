"""Shared test builders plus the acceptance-criteria summary hook."""

from __future__ import annotations

import numpy as np

from helpers import rand_uniform
from tlq.layers import Activation, LayerStack, Linear, RMSNorm
from tlq.quantizer import dequantize, quantize
from tlq.tensor import Rng, rand_normal

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance" not in report.nodeid or report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")


def random_block_stack(seed: int, blocks: int, channels: int, act: str = "silu") -> LayerStack:
    """Generic (rmsnorm -> linear -> act) stack without planted structure."""
    rng = Rng(seed)
    layers = []
    for d in range(blocks):
        gain = rand_uniform(rng.split(f"gain{d}"), (channels,), 0.5, 1.5)
        w = rand_normal(rng.split(f"w{d}"), (channels, channels)) / np.sqrt(channels)
        b = rand_normal(rng.split(f"b{d}"), (channels,)) * 0.1
        layers.append(RMSNorm(f"norm{d}", gain, 1e-6))
        layers.append(Linear(f"lin{d}", w, b))
        layers.append(Activation(f"act{d}", act))
    return LayerStack(tuple(layers), channels)


def single_linear_stack(seed: int, n_in: int, n_out: int) -> LayerStack:
    rng = Rng(seed)
    w = rand_normal(rng.split("w"), (n_out, n_in)) / np.sqrt(n_in)
    b = rand_normal(rng.split("b"), (n_out,)) * 0.1
    return LayerStack((Linear("lin", w, b),), n_in)


def reference_linear_quant(lin: Linear, x: np.ndarray, scale, cfg_w, cfg_a) -> np.ndarray:
    """One sample's quantized linear from the public quantizer: Qa(x/s) @ Qw(W*s).T + b."""
    w_hat = dequantize(quantize(lin.weight * scale.values, cfg_w))
    return dequantize(quantize(x / scale.values, cfg_a)) @ w_hat.T + lin.bias

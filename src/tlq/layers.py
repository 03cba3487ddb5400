"""Layer and stack definitions for the straight-line toy networks.

A stack is an ordered composition of token-wise layers: rmsnorm, linear,
and activation. There is no token mixing anywhere, which keeps per-token
gradient analysis exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

ACT_FNS = ("relu", "silu")


@dataclass(frozen=True)
class RMSNorm:
    name: str
    gain: np.ndarray  # (C,)
    eps: float = 1e-6

    def __post_init__(self):
        if self.gain.ndim != 1:
            raise ShapeError(f"rmsnorm {self.name!r}: gain must be rank 1, got {self.gain.shape}")
        if not 0 < self.eps < float("inf"):  # NaN fails too
            raise ConfigError(f"rmsnorm {self.name!r}: eps must be finite and > 0, got {self.eps}")


@dataclass(frozen=True)
class Linear:
    name: str
    weight: np.ndarray  # (C_out, C_in)
    bias: np.ndarray  # (C_out,)

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeError(f"linear {self.name!r}: weight must be rank 2, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"linear {self.name!r}: bias shape {self.bias.shape} does not match "
                f"weight {self.weight.shape}"
            )
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise NumericError(f"linear {self.name!r}: non-finite parameters")


@dataclass(frozen=True)
class Activation:
    name: str
    fn: str = "silu"

    def __post_init__(self):
        if self.fn not in ACT_FNS:
            raise ConfigError(f"activation {self.name!r}: fn must be one of {ACT_FNS}, got {self.fn!r}")


LayerSpec = Union[RMSNorm, Linear, Activation]


def layer_output_channels(layer: LayerSpec, in_channels: int) -> int:
    """Width after `layer` given its input width; raises on a mismatch."""
    if isinstance(layer, RMSNorm):
        if layer.gain.shape[0] != in_channels:
            raise ShapeError(
                f"layer {layer.name!r}: gain length {layer.gain.shape[0]} != input width {in_channels}"
            )
        return in_channels
    if isinstance(layer, Linear):
        if layer.weight.shape[1] != in_channels:
            raise ShapeError(
                f"layer {layer.name!r}: weight expects {layer.weight.shape[1]} input channels, "
                f"stack provides {in_channels}"
            )
        return layer.weight.shape[0]
    return in_channels


@dataclass(frozen=True)
class LayerStack:
    layers: tuple[LayerSpec, ...]
    input_channels: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate layer names in stack: {sorted(names)}")
        if any("".join(name.splitlines()) != name for name in names):  # a result file holds one name a line
            raise ConfigError(f"layer names must not hold a line break: {names}")
        # Walking the widths validates that adjacent layers compose.
        if 0 in (widths := self.widths()):
            raise ShapeError(f"every layer width must be > 0, got {widths}")

    def widths(self) -> tuple[int, ...]:
        """Input width of every layer plus the final output width."""
        out = [self.input_channels]
        width = self.input_channels
        for layer in self.layers:
            width = layer_output_channels(layer, width)
            out.append(width)
        return tuple(out)

    def linears(self) -> tuple[tuple[int, Linear], ...]:
        return tuple((i, l) for i, l in enumerate(self.layers) if isinstance(l, Linear))

"""Forward passes, reverse-mode token gradients, and artifact serialization.

Two forward modes exist for the same stack: exact float composition and a
quantization-exposed pass where every linear layer consumes per-token
quantized activations (divided by its smoothing scale) and per-channel
quantized weights (multiplied by the same scale). Biases and non-linear
layers always stay in full precision.

Gradients are computed for a scalar proxy objective on the final output;
the token-importance machinery only needs a well-defined scalar, and the
default 0.5*||y||^2/N needs no labels and is deterministic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeError, TlqError
from .layers import Activation, LayerSpec, LayerStack, Linear, RMSNorm
from .quantizer import _QDQ_CHUNK_ELEMS, QuantConfig, _qdq_inplace
from .smoothing import SmoothScale
from .tensor import matmul

CHECKPOINT_MAGIC = b"TLQCKPT1"
CALIBSET_MAGIC = b"TLQCAL01"

LOSS_KINDS = ("sum_sq_output", "ce_pseudo")


@dataclass(frozen=True)
class ForwardTrace:
    inputs: tuple[np.ndarray, ...]  # input of every layer, in order
    output: np.ndarray

    def values(self) -> tuple[np.ndarray, ...]:
        """All trace entries: one per layer input plus the final output."""
        return (*self.inputs, self.output)


@dataclass(frozen=True)
class GradTrace:
    grads: tuple[np.ndarray, ...]  # d(loss)/d(layer input), plus d(loss)/d(output) last


@dataclass(frozen=True)
class ProxyLossSpec:
    kind: str = "sum_sq_output"
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind == "ce_pseudo" and self.labels is None:
            raise ConfigError("ce_pseudo loss requires labels")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form avoids exp overflow for large negative inputs
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax(y: np.ndarray) -> np.ndarray:
    z = y - y.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_value(y: np.ndarray, spec: ProxyLossSpec) -> float:
    n = y.shape[0]
    if spec.kind == "sum_sq_output":
        return float(0.5 * np.sum(y * y) / n)
    p = _softmax(y)
    picked = p[np.arange(n), spec.labels]
    return float(-np.mean(np.log(picked)))


def loss_grad(y: np.ndarray, spec: ProxyLossSpec) -> np.ndarray:
    n = y.shape[0]
    if spec.kind == "sum_sq_output":
        return y / n
    g = _softmax(y)
    g[np.arange(n), spec.labels] -= 1.0
    return g / n


def apply_layer_fp(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Full-precision application of one layer to a (tokens, channels) tensor."""
    if isinstance(layer, RMSNorm):
        if x.shape[1] != layer.gain.shape[0]:
            raise ShapeError(f"layer {layer.name!r}: input width {x.shape[1]} vs gain {layer.gain.shape[0]}")
        rms = np.sqrt(np.mean(x * x, axis=1, keepdims=True) + layer.eps)
        return x / rms * layer.gain
    if isinstance(layer, Linear):
        if x.shape[1] != layer.weight.shape[1]:
            raise ShapeError(
                f"layer {layer.name!r}: input width {x.shape[1]} vs weight {layer.weight.shape}"
            )
        return matmul(x, layer.weight.T) + layer.bias
    if layer.fn == "relu":
        return np.maximum(x, 0.0)
    return x * _sigmoid(x)


def apply_linear_quant(
    layer: Linear,
    xs: np.ndarray,
    scale: SmoothScale,
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
) -> np.ndarray:
    """Quantization-exposed linear layer on a (B, N, C) batch: Qa(x/s) against Qw(W*s), plus bias.

    Quantization is simulated (dequantize then float matmul). The activations
    are divided and quantized one block of whole samples at a time, in one
    buffer of about `_QDQ_CHUNK_ELEMS` elements that holds at least one
    sample; the scales are per token, so the block size changes no byte.
    The gemm stays per sample, because the bytes of a flattened matmul
    depend on the BLAS. Every call returns a new array, because the
    in-process transport queues outputs by reference.
    """
    c_in = layer.weight.shape[1]
    if xs.ndim != 3 or xs.shape[2] != c_in or scale.values.shape != (c_in,):
        raise ShapeError(
            f"layer {layer.name!r}: inputs {xs.shape} and smoothing scale "
            f"{scale.values.shape} vs {c_in} input channels"
        )
    w_hat = layer.weight * scale.values
    _qdq_inplace(w_hat, cfg_w)
    out = np.empty((*xs.shape[:2], layer.weight.shape[0]))
    samples = max(1, _QDQ_CHUNK_ELEMS // max(1, xs.shape[1] * c_in))
    x_hat = np.empty((min(samples, xs.shape[0]), *xs.shape[1:]))
    for start in range(0, xs.shape[0], samples):
        x_in = xs[start : start + samples]
        block = np.divide(x_in, scale.values, out=x_hat[: x_in.shape[0]])
        _qdq_inplace(block.reshape(-1, c_in), cfg_a)
        for x_b, out_b in zip(block, out[start:]):
            np.matmul(x_b, w_hat.T, out=out_b)
    out += layer.bias
    return out


def _check_input(stack: LayerStack, x: np.ndarray) -> None:
    if x.ndim != 2:
        raise ShapeError(f"stack input must be rank 2 (tokens x channels), got {x.shape}")
    if x.shape[1] != stack.input_channels:
        raise ShapeError(f"stack expects {stack.input_channels} input channels, got {x.shape[1]}")


def forward_fp(stack: LayerStack, x: np.ndarray) -> ForwardTrace:
    """Exact float composition, recording every intermediate layer input."""
    _check_input(stack, x)
    inputs = []
    cur = x
    for layer in stack.layers:
        inputs.append(cur)
        cur = apply_layer_fp(layer, cur)
    return ForwardTrace(tuple(inputs), cur)


def forward_fp_from(stack: LayerStack, start: int, x: np.ndarray) -> np.ndarray:
    """Full-precision forward through layers[start:], for perturbation probes."""
    if not 0 <= start <= len(stack.layers):
        raise ShapeError(f"layer index {start} out of range for {len(stack.layers)} layers")
    cur = x
    for layer in stack.layers[start:]:
        cur = apply_layer_fp(layer, cur)
    return cur


def _validate_quant_cfgs(cfg_w: QuantConfig, cfg_a: QuantConfig) -> None:
    if cfg_a.granularity != "per_token":
        raise ConfigError("activation quantization must be per_token")
    if cfg_w.granularity != "per_channel":
        raise ConfigError("weight quantization must be per_channel")


def forward_quant(
    stack: LayerStack,
    x: np.ndarray,
    scales: Mapping[str, SmoothScale],
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
) -> ForwardTrace:
    """Quantization-exposed forward; every linear needs a smoothing scale."""
    _check_input(stack, x)
    _validate_quant_cfgs(cfg_w, cfg_a)
    inputs = []
    cur = x
    for layer in stack.layers:
        inputs.append(cur)
        if isinstance(layer, Linear):
            if layer.name not in scales:
                raise ConfigError(f"missing smoothing scale for linear layer {layer.name!r}")
            cur = apply_linear_quant(layer, cur[None], scales[layer.name], cfg_w, cfg_a)[0]
        else:
            cur = apply_layer_fp(layer, cur)
    return ForwardTrace(tuple(inputs), cur)


def _layer_input_grad(layer: LayerSpec, x: np.ndarray, g_out: np.ndarray) -> np.ndarray:
    if isinstance(layer, Linear):
        return matmul(g_out, layer.weight)
    if isinstance(layer, Activation):
        if layer.fn == "relu":
            return g_out * (x > 0.0)
        sig = _sigmoid(x)
        return g_out * sig * (1.0 + x * (1.0 - sig))
    # rmsnorm: y = g * x / r with r = sqrt(mean(x^2) + eps), per token
    c = x.shape[1]
    r = np.sqrt(np.mean(x * x, axis=1, keepdims=True) + layer.eps)
    u = g_out * layer.gain
    return u / r - x * np.sum(u * x, axis=1, keepdims=True) / (c * r**3)


def backward_token_grads(
    stack: LayerStack, x: np.ndarray, loss: ProxyLossSpec = ProxyLossSpec()
) -> GradTrace:
    """Reverse-mode gradients of the proxy loss at every layer input.

    relu uses subgradient 0 at 0; silu uses its exact derivative. The last
    trace entry is the gradient at the final output.
    """
    return backward_from_trace(stack, forward_fp(stack, x), loss)


def backward_from_trace(
    stack: LayerStack, trace: ForwardTrace, loss: ProxyLossSpec = ProxyLossSpec()
) -> GradTrace:
    """The backward half of `backward_token_grads`, on a recorded FP trace."""
    if len(trace.inputs) != len(stack.layers):
        raise ShapeError(f"trace has {len(trace.inputs)} layer inputs, stack has {len(stack.layers)} layers")
    g = loss_grad(trace.output, loss)
    grads = [g]
    for layer, x_l in zip(reversed(stack.layers), reversed(trace.inputs)):
        g = _layer_input_grad(layer, x_l, g)
        grads.append(g)
    return GradTrace(tuple(reversed(grads)))


# --- layer table, shared by the checkpoint and the quantized artifact ---------
#
# u32 layer_count | layers...
# layer: u8 kind | u16 name_len | name utf-8 | kind-specific body
#   kind 0 rmsnorm: u32 C | f64[C] gain | f64 eps
#   kind 1 linear:  the format's own body (float in TLQCKPT1, quantized in TLQQNT01)
#   kind 2 act:     u32 fn_code (0 relu, 1 silu)
# All integers little-endian; payloads are row-major float64.

_KIND_RMSNORM, _KIND_LINEAR, _KIND_ACT = 0, 1, 2
_FN_CODES = {"relu": 0, "silu": 1}
_FN_NAMES = {v: k for k, v in _FN_CODES.items()}


class _Reader:
    """Bounds-checked cursor over a binary payload.

    Files fail with CheckpointError and its code ("truncated", "trailing");
    wire frames pass `error=ProtocolError`, which takes the code into its
    message. Fields are memoryview slices of the payload, not copies.
    """

    def __init__(self, data, error: type[TlqError] = CheckpointError):
        self.data = memoryview(data)
        self.pos = 0
        self.error = error

    def _fail(self, code: str, message: str) -> TlqError:
        if self.error is CheckpointError:
            return CheckpointError(code, message)
        return self.error(f"{code}: {message}")

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise self._fail("truncated", f"payload ends at byte {len(self.data)}, needed {self.pos + n}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def array(self, dtype: str, *shape: int) -> np.ndarray:
        """A row-major array; a shape numpy cannot hold fails as "bad_dims".

        A writable payload is taken to be a private buffer (a received
        frame), so the array views it; a read-only one (`bytes`) is copied.
        Either way the array is writable and shares no memory with anything
        the caller still reads.
        """
        data = self.take(np.dtype(dtype).itemsize * math.prod(shape))
        try:
            out = np.frombuffer(data, dtype=dtype).reshape(shape)
        except ValueError:  # a zero dimension beside huge ones, or ndim > 64
            raise self._fail("bad_dims", f"shape {shape} cannot be allocated") from None
        return out if out.flags.writeable else out.copy()

    def f64s(self, *shape: int) -> np.ndarray:
        return self.array("<f8", *shape)

    def text(self, n: int) -> str:
        """n bytes of UTF-8; anything else is the payload's own error ("bad_text")."""
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise self._fail("bad_text", f"invalid UTF-8 at byte {self.pos - n + exc.start}") from None

    def done(self) -> None:
        if self.pos != len(self.data):
            raise self._fail("trailing", f"{len(self.data) - self.pos} unread trailing bytes")


def pack_layers(layers, pack_linear: Callable[[Any], list[bytes]]) -> bytes:
    """The layer table; the format's `pack_linear` gives the parts of a kind-1 body."""
    out = [struct.pack("<I", len(layers))]
    for layer in layers:
        if isinstance(layer, RMSNorm):
            gain = np.asarray(layer.gain, dtype="<f8")
            kind = _KIND_RMSNORM
            body = [struct.pack("<I", gain.shape[0]), gain.tobytes(), struct.pack("<d", layer.eps)]
        elif isinstance(layer, Activation):
            kind, body = _KIND_ACT, [struct.pack("<I", _FN_CODES[layer.fn])]
        else:
            kind, body = _KIND_LINEAR, pack_linear(layer)
        name = layer.name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise CheckpointError("bad_name", f"layer name too long ({len(name)} bytes)")
        out += [struct.pack("<BH", kind, len(name)), name, *body]
    return b"".join(out)


def unpack_layers(r: _Reader, unpack_linear: Callable[[_Reader, str], Any]) -> tuple:
    """Read the layer table written by `pack_layers`.

    Every failure is a CheckpointError: a name that is not UTF-8, an unknown
    kind or activation code, a short payload, or a record that fails its
    own layer validation.
    """
    layers = []
    for _ in range(r.u32()):
        kind, name_len = r.unpack("<BH")
        name = r.text(name_len)
        try:
            if kind == _KIND_RMSNORM:
                gain = r.f64s(r.u32())
                layers.append(RMSNorm(name, gain, r.unpack("<d")[0]))
            elif kind == _KIND_LINEAR:
                layers.append(unpack_linear(r, name))
            elif kind == _KIND_ACT:
                code = r.u32()
                if code not in _FN_NAMES:
                    raise CheckpointError("bad_kind", f"unknown activation code {code}")
                layers.append(Activation(name, _FN_NAMES[code]))
            else:
                raise CheckpointError("bad_kind", f"unknown layer kind {kind}")
        except (ConfigError, ShapeError, NumericError) as exc:
            raise CheckpointError("bad_layer", f"layer {len(layers)}: {exc}") from None
    return tuple(layers)


# --- checkpoint format (TLQCKPT1) -------------------------------------------
#
# magic(8) | u32 input_channels | layer table
# kind 1 linear: u32 C_out | u32 C_in | f64[C_out*C_in] weight | f64[C_out] bias


def _pack_linear(layer: Linear) -> list[bytes]:
    weight, bias = np.asarray(layer.weight, dtype="<f8"), np.asarray(layer.bias, dtype="<f8")
    return [struct.pack("<II", *weight.shape), weight.tobytes(), bias.tobytes()]


def _unpack_linear(r: _Reader, name: str) -> Linear:
    c_out, c_in = r.unpack("<II")
    weight = r.f64s(c_out, c_in)
    return Linear(name, weight, r.f64s(c_out))


def save_checkpoint(stack: LayerStack) -> bytes:
    head = CHECKPOINT_MAGIC + struct.pack("<I", stack.input_channels)
    return head + pack_layers(stack.layers, _pack_linear)


def load_checkpoint(data: bytes) -> LayerStack:
    r = _Reader(data)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise CheckpointError("bad_magic", "bad magic: not a checkpoint payload")
    input_channels = r.u32()
    layers = unpack_layers(r, _unpack_linear)
    r.done()
    try:
        return LayerStack(layers, input_channels)
    except (ShapeError, ConfigError, NumericError) as exc:
        raise CheckpointError("bad_dims", f"inconsistent stack: {exc}") from exc


# --- calibration set format (TLQCAL01) ---------------------------------------
#
# magic(8) | u32 B | u32 N | u32 C | u8[B*N] modality (0 text, 1 visual)
#          | f64[B*N*C] activations, row-major


@dataclass(frozen=True)
class CalibrationSet:
    activations: np.ndarray  # (B, N, C) float64
    modality: np.ndarray  # (B, N) uint8, 0 text / 1 visual

    def __post_init__(self):
        if self.activations.ndim != 3:
            raise ShapeError(f"activations must be (B, N, C), got {self.activations.shape}")
        if 0 in self.activations.shape[:2]:
            raise ShapeError(f"calibration set needs at least one sample and one token, got {self.activations.shape}")
        if self.modality.shape != self.activations.shape[:2]:
            raise ShapeError(
                f"modality shape {self.modality.shape} does not match activations "
                f"{self.activations.shape}"
            )
        if not np.all((self.modality == 0) | (self.modality == 1)):
            raise NumericError("modality tags must be 0 (text) or 1 (visual)")

    @property
    def batch(self) -> int:
        return self.activations.shape[0]

    @property
    def tokens(self) -> int:
        return self.activations.shape[1]

    @property
    def channels(self) -> int:
        return self.activations.shape[2]


def save_calibset(calib: CalibrationSet) -> bytes:
    b, n, c = calib.activations.shape
    return b"".join(
        [
            CALIBSET_MAGIC,
            struct.pack("<III", b, n, c),
            np.asarray(calib.modality, dtype=np.uint8).tobytes(),
            np.asarray(calib.activations, dtype="<f8").tobytes(),
        ]
    )


def load_calibset(data: bytes) -> CalibrationSet:
    r = _Reader(data)
    if r.take(len(CALIBSET_MAGIC)) != CALIBSET_MAGIC:
        raise CheckpointError("bad_magic", "bad magic: not a calibration-set payload")
    b, n, c = r.unpack("<III")
    modality = r.array("u1", b, n)
    acts = r.f64s(b, n, c)
    r.done()
    if not np.isfinite(acts).all():
        sample, token, channel = (int(i) for i in np.argwhere(~np.isfinite(acts))[0])
        raise CheckpointError(
            "non_finite",
            f"activation at sample {sample}, token {token}, channel {channel} "
            f"is {float(acts[sample, token, channel])}",
        )
    try:
        return CalibrationSet(acts, modality)
    except (NumericError, ShapeError) as exc:
        raise CheckpointError("bad_field", str(exc)) from None

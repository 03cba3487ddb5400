"""Forward passes, reverse-mode token gradients, and artifact serialization.

Two forward modes exist for the same stack: exact float composition and a
quantization-exposed pass where every linear layer consumes per-token
quantized activations (divided by its smoothing scale) and per-channel
quantized weights (multiplied by the same scale). Biases and non-linear
layers always stay in full precision.

The quantized linear has two halves. `quantized_weight` builds the weight
half Qw(W*s), which depends only on the layer and its scale, as one
read-only array; `apply_linear_quant` and `forward_quant` take built
weights and quantize only the activations. A caller builds each weight
once per (linear, scale) and passes it to every block or sample it runs.

Gradients are computed for a scalar proxy objective on the final output;
the token-importance machinery only needs a well-defined scalar, and the
default 0.5*||y||^2/N needs no labels and is deterministic.

The forwards, the backward and the losses take one (N, C) sample or a
(k, N, C) block of whole samples. Every reduction runs per token over the
last axis or per sample over the last two, so each sample of a block has
the bytes of a one-sample call on it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping

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
    saved: tuple[np.ndarray | None, ...] = ()  # forward_fp's, per layer: what the backward reads (`_apply_fp`)

    def values(self) -> tuple[np.ndarray, ...]:
        """All trace entries: one per layer input plus the final output."""
        return (*self.inputs, self.output)


@dataclass(frozen=True)
class ProxyLossSpec:
    kind: str = "sum_sq_output"
    labels: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")
        if self.kind == "ce_pseudo" and self.labels is None:
            raise ConfigError("ce_pseudo loss requires labels")


def _softmax(y: np.ndarray) -> np.ndarray:
    z = y - y.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def sample_sums(a: np.ndarray) -> float | np.ndarray:
    """Sum of one (N, C) sample as a float, or of each sample of a (k, N, C) block."""
    return float(np.sum(a)) if a.ndim == 2 else np.sum(a, axis=(1, 2))


def _labeled(y: np.ndarray, labels: np.ndarray) -> tuple:
    """Index of every token's labeled logit; (N,) labels serve every sample of a block."""
    return (*np.indices(y.shape[:-1], sparse=True), np.broadcast_to(labels, y.shape[:-1]))


def loss_value(y: np.ndarray, spec: ProxyLossSpec) -> float | np.ndarray:
    """The proxy loss of one sample, or a (k,) array of each block sample's loss."""
    n = y.shape[-2]
    if spec.kind == "sum_sq_output":
        return 0.5 * sample_sums(y * y) / n
    picked = _softmax(y)[_labeled(y, spec.labels)]
    losses = -np.mean(np.log(picked), axis=-1)
    return float(losses) if y.ndim == 2 else losses


def loss_grad(y: np.ndarray, spec: ProxyLossSpec) -> np.ndarray:
    n = y.shape[-2]
    if spec.kind == "sum_sq_output":
        return y / n
    g = _softmax(y)
    g[_labeled(y, spec.labels)] -= 1.0
    return g / n


def apply_layer_fp(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
    """Full-precision application of one layer to (tokens, channels) or (samples, tokens, channels)."""
    return _apply_fp(layer, x)[0]


def _apply_fp(layer: LayerSpec, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """`apply_layer_fp` and what the layer's backward reads: rmsnorm's per-token r, silu's sigmoid, else None."""
    if isinstance(layer, RMSNorm):
        if x.shape[-1] != layer.gain.shape[0]:
            raise ShapeError(f"layer {layer.name!r}: input width {x.shape[-1]} vs gain {layer.gain.shape[0]}")
        r = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + layer.eps)
        return x / r * layer.gain, r
    if isinstance(layer, Linear):
        if x.shape[-1] != layer.weight.shape[1]:
            raise ShapeError(
                f"layer {layer.name!r}: input width {x.shape[-1]} vs weight {layer.weight.shape}"
            )
        return matmul(x, layer.weight.T) + layer.bias, None
    if layer.fn == "relu":
        return np.maximum(x, 0.0), None
    sig = 0.5 * (1.0 + np.tanh(0.5 * x))  # tanh form avoids exp overflow for large negative inputs
    return x * sig, sig


def _block_samples(xs: np.ndarray) -> int:
    """Whole samples of a (B, N, C) batch in a block of about `_QDQ_CHUNK_ELEMS` elements, at least one."""
    return max(1, _QDQ_CHUNK_ELEMS // max(1, xs.shape[1] * xs.shape[2]))


def _check_granularity(cfg: QuantConfig, want: str, what: str) -> None:
    if cfg.granularity != want:
        raise ConfigError(f"{what} quantization must be {want}")


def quantized_weight(layer: Linear, scale: SmoothScale, cfg_w: QuantConfig) -> np.ndarray:
    """The weight half of the quantized linear: Qw(W*s), simulated (dequantized), as a read-only array.

    It depends only on the layer, its smoothing scale and `cfg_w`, so one
    build serves every `apply_linear_quant` call at that scale; it is
    read-only because those calls share it.
    """
    _check_granularity(cfg_w, "per_channel", "weight")
    if scale.values.shape != (layer.weight.shape[1],):
        raise ShapeError(
            f"layer {layer.name!r}: smoothing scale {scale.values.shape} vs {layer.weight.shape[1]} input channels"
        )
    w_hat = layer.weight * scale.values
    _qdq_inplace(w_hat, cfg_w)
    w_hat.flags.writeable = False
    return w_hat


def quantized_weights(
    stack: LayerStack, scales: Mapping[str, SmoothScale], cfg_w: QuantConfig
) -> dict[str, np.ndarray]:
    """`quantized_weight` of every linear of the stack, by name; every linear needs a scale."""
    out = {}
    for _, layer in stack.linears():
        if layer.name not in scales:
            raise ConfigError(f"missing smoothing scale for linear layer {layer.name!r}")
        out[layer.name] = quantized_weight(layer, scales[layer.name], cfg_w)
    return out


def apply_linear_quant(
    layer: Linear,
    xs: np.ndarray,
    scale: SmoothScale,
    w_hat: np.ndarray,
    cfg_a: QuantConfig,
) -> np.ndarray:
    """Quantization-exposed linear layer on a (B, N, C) batch: Qa(x/s) against Qw(W*s), plus bias.

    This is the activation half: `w_hat` is the weight half,
    `quantized_weight(layer, scale, cfg_w)`, built once by the caller for
    every call at this scale. Quantization is simulated (dequantize then
    float matmul). Every call returns a new array, because the in-process
    transport queues outputs by reference.
    """
    out = np.empty((*xs.shape[:2], layer.weight.shape[0]))
    for _ in _linear_quant_blocks(layer, xs, scale, w_hat, cfg_a, out):
        pass
    return out


def _linear_quant_blocks(
    layer: Linear,
    xs: np.ndarray,
    scale: SmoothScale,
    w_hat: np.ndarray,
    cfg_a: QuantConfig,
    out: np.ndarray,
):
    """The block loop of `apply_linear_quant`: yield (start, y) for each block of whole samples.

    Each block is divided and quantized in one buffer of about
    `_QDQ_CHUNK_ELEMS` elements (the scales are per token, so the block size
    changes no byte), then goes through one stacked matmul, which keeps the
    per-sample gemms' bytes where a flattened (k*N, C) gemm would not, and
    gets the bias. `y` is the block's view of `out`, which holds the whole
    batch or one block that every block reuses.
    """
    c_in = layer.weight.shape[1]
    if xs.ndim != 3 or xs.shape[2] != c_in or scale.values.shape != (c_in,) or w_hat.shape != layer.weight.shape:
        raise ShapeError(
            f"layer {layer.name!r}: inputs {xs.shape}, smoothing scale {scale.values.shape} and "
            f"quantized weight {w_hat.shape} vs weight {layer.weight.shape}"
        )
    samples = _block_samples(xs)
    whole = out.shape[0] == xs.shape[0]
    x_hat = np.empty((min(samples, xs.shape[0]), *xs.shape[1:]))
    for start in range(0, xs.shape[0], samples):
        x_in = xs[start : start + samples]
        block = np.divide(x_in, scale.values, out=x_hat[: x_in.shape[0]])
        _qdq_inplace(block.reshape(-1, c_in), cfg_a)
        y = out[start : start + samples] if whole else out[: x_in.shape[0]]
        np.matmul(block, w_hat.T, out=y)
        y += layer.bias
        yield start, y


def _check_input(stack: LayerStack, x: np.ndarray) -> np.ndarray:
    if x.dtype != np.float64:
        raise NumericError(f"stack input must be float64, got {x.dtype}")
    if x.ndim not in (2, 3):
        raise ShapeError(f"stack input must be (tokens, channels) or (samples, tokens, channels), got {x.shape}")
    if x.shape[-1] != stack.input_channels:
        raise ShapeError(f"stack expects {stack.input_channels} input channels, got {x.shape[-1]}")
    return np.ascontiguousarray(x)  # layout changes the bytes of the rmsnorm sums and the stacked gemms


def forward_fp(stack: LayerStack, x: np.ndarray) -> ForwardTrace:
    """Exact float composition, recording every layer input and the values the backward reads."""
    inputs, saved = [], []
    cur = _check_input(stack, x)
    for layer in stack.layers:
        inputs.append(cur)
        cur, s = _apply_fp(layer, cur)
        saved.append(s)
    return ForwardTrace(tuple(inputs), cur, tuple(saved))


def _validate_quant_cfgs(cfg_w: QuantConfig, cfg_a: QuantConfig) -> None:
    _check_granularity(cfg_a, "per_token", "activation")
    _check_granularity(cfg_w, "per_channel", "weight")


def forward_quant(
    stack: LayerStack,
    x: np.ndarray,
    scales: Mapping[str, SmoothScale],
    weights: Mapping[str, np.ndarray],
    cfg_a: QuantConfig,
) -> ForwardTrace:
    """Quantization-exposed forward; every linear needs a smoothing scale and, in `weights`, its built weight.

    `quantized_weights` builds them all; the pass only reads them.
    """
    cur = _check_input(stack, x)
    _check_granularity(cfg_a, "per_token", "activation")
    inputs = []
    for layer in stack.layers:
        inputs.append(cur)
        if isinstance(layer, Linear):
            if layer.name not in scales or layer.name not in weights:
                raise ConfigError(f"missing smoothing scale or quantized weight for linear layer {layer.name!r}")
            xs = cur if cur.ndim == 3 else cur[None]
            y = apply_linear_quant(layer, xs, scales[layer.name], weights[layer.name], cfg_a)
            cur = y if cur.ndim == 3 else y[0]
        else:
            cur = apply_layer_fp(layer, cur)
    return ForwardTrace(tuple(inputs), cur)


def _layer_input_grad(layer: LayerSpec, x: np.ndarray, saved: np.ndarray | None, g_out: np.ndarray) -> np.ndarray:
    if isinstance(layer, Linear):
        return matmul(g_out, layer.weight)
    if isinstance(layer, Activation):
        if layer.fn == "relu":
            return g_out * (x > 0.0)
        return g_out * saved * (1.0 + x * (1.0 - saved))  # saved: the forward's sigmoid
    # rmsnorm: y = g * x / r with r = sqrt(mean(x^2) + eps) per token, the forward's saved r
    u = g_out * layer.gain
    return u / saved - x * np.sum(u * x, axis=-1, keepdims=True) / (x.shape[-1] * saved**3)


def backward_token_grads(
    stack: LayerStack, x: np.ndarray, loss: ProxyLossSpec = ProxyLossSpec(), keep: Collection[int] | None = None
) -> tuple[np.ndarray | None, ...]:
    """Reverse-mode gradients of the proxy loss at every layer input in `keep`, plus the final output's last.

    relu uses subgradient 0 at 0; silu uses its exact derivative.
    """
    return backward_from_trace(stack, forward_fp(stack, x), loss, keep)


def backward_from_trace(
    stack: LayerStack, trace: ForwardTrace, loss: ProxyLossSpec = ProxyLossSpec(), keep: Collection[int] | None = None
) -> tuple[np.ndarray | None, ...]:
    """The backward half of `backward_token_grads`, on a `forward_fp` trace.

    `keep` holds the indices whose gradients the caller reads (default: every
    layer input and the output); the pass stops at the lowest, and leaves the others None.
    """
    n = len(stack.layers)
    if len(trace.inputs) != n or len(trace.saved) != n:
        raise ShapeError(f"trace has {len(trace.inputs)} layer inputs and {len(trace.saved)} saved, stack {n} layers")
    keep = range(n + 1) if keep is None else keep
    g = loss_grad(trace.output, loss)
    grads = [None] * n + [g if n in keep else None]
    for l in range(n - 1, min(keep, default=n) - 1, -1):
        g = _layer_input_grad(stack.layers[l], trace.inputs[l], trace.saved[l], g)
        grads[l] = g if l in keep else None
    return tuple(grads)


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
        code = "bad_name" if isinstance(exc, ConfigError) else "bad_dims"  # the stack's ConfigErrors are its name rules
        raise CheckpointError(code, f"inconsistent stack: {exc}") from exc


# --- calibration set format (TLQCAL01) ---------------------------------------
#
# magic(8) | u32 B | u32 N | u32 C | u8[B*N] modality (0 text, 1 visual)
#          | f64[B*N*C] activations, row-major


@dataclass(frozen=True)
class CalibrationSet:
    activations: np.ndarray  # (B, N, C) float64, stored C-contiguous
    modality: np.ndarray  # (B, N) uint8, 0 text / 1 visual

    def __post_init__(self):
        if self.activations.dtype != np.float64:
            raise NumericError(f"activations must be float64, got {self.activations.dtype}")
        # layout changes the bytes of the rmsnorm sums and the stacked gemms
        object.__setattr__(self, "activations", np.ascontiguousarray(self.activations))
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

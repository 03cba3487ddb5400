import dataclasses
import struct

import numpy as np
import pytest

from conftest import random_block_stack, single_linear_stack
from helpers import rand_uniform, unit_scale
from tlq import model
from tlq.calibration import QuantizedLinear, QuantizedStack, load_quantized, save_quantized
from tlq.errors import CheckpointError, ConfigError, NumericError, ShapeError
from tlq.layers import Activation, LayerStack, Linear, RMSNorm
from tlq.fixtures import build_calibset, build_stack
from tlq.model import (
    CHECKPOINT_MAGIC,
    CalibrationSet,
    _pack_linear,
    ProxyLossSpec,
    apply_layer_fp,
    backward_from_trace,
    backward_token_grads,
    forward_fp,
    forward_quant,
    load_calibset,
    load_checkpoint,
    loss_value,
    pack_layers,
    quantized_weight,
    quantized_weights,
    save_calibset,
    save_checkpoint,
)
from tlq.quantizer import QuantConfig, dequantize, quantize
from tlq.smoothing import SmoothScale
from tlq.tensor import Rng, rand_normal

CFG_W8 = QuantConfig(8, "per_channel")
CFG_A8 = QuantConfig(8, "per_token")


def test_empty_stack_is_identity():
    stack = LayerStack((), 4)
    x = rand_normal(Rng(1), (3, 4))
    trace = forward_fp(stack, x)
    assert np.array_equal(trace.output, x)
    assert trace.inputs == ()


def test_identity_linear_is_identity():
    stack = LayerStack((Linear("lin", np.eye(4), np.zeros(4)),), 4)
    x = rand_normal(Rng(2), (5, 4))
    assert np.array_equal(forward_fp(stack, x).output, x)


def test_three_layer_stack_matches_hand_composition():
    rng = Rng(3)
    gain = rand_uniform(rng.split("g"), (4,), 0.5, 2.0)
    w = rand_normal(rng.split("w"), (3, 4))
    b = rand_normal(rng.split("b"), (3,))
    stack = LayerStack(
        (RMSNorm("n", gain, 1e-6), Linear("l", w, b), Activation("a", "relu")), 4
    )
    x = rand_normal(rng.split("x"), (6, 4))
    rms = np.sqrt(np.mean(x * x, axis=1, keepdims=True) + 1e-6)
    want = np.maximum((x / rms * gain) @ w.T + b, 0.0)
    got = forward_fp(stack, x).output
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert len(forward_fp(stack, x).values()) == 4


def test_dimension_error_names_layer():
    stack = single_linear_stack(1, 4, 3)
    with pytest.raises(ShapeError, match="lin"):
        apply_layer_fp(stack.layers[0], np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        forward_fp(stack, np.zeros((2, 5)))


def _ones_scales(stack):
    return {l.name: unit_scale(l.weight.shape[1]) for _, l in stack.linears()}


def test_high_bit_quant_forward_converges_to_fp():
    stack = random_block_stack(4, 2, 8)
    x = rand_normal(Rng(5), (6, 8))
    y_fp = forward_fp(stack, x).output
    scales = _ones_scales(stack)
    weights = quantized_weights(stack, scales, QuantConfig(16, "per_channel"))
    y_q = forward_quant(stack, x, scales, weights, QuantConfig(16, "per_token")).output
    assert np.max(np.abs(y_q - y_fp)) <= 1e-3 * np.max(np.abs(y_fp))


def test_grid_aligned_quant_forward_is_exact():
    # integer rows with absmax 127 sit exactly on the 8-bit grid (pitch 1)
    w = np.array([[127.0, -1.0], [25.0, 127.0]]) / 127.0
    stack = LayerStack((Linear("lin", w * 127.0, np.zeros(2)),), 2)
    x = np.array([[127.0, -64.0], [25.0, 127.0]])
    y_fp = forward_fp(stack, x).output
    scales = _ones_scales(stack)
    y_q = forward_quant(stack, x, scales, quantized_weights(stack, scales, CFG_W8), CFG_A8).output
    assert np.array_equal(y_fp, y_q)


def test_built_weight_is_read_only():
    lin = single_linear_stack(30, 5, 4).layers[0]
    w_hat = quantized_weight(lin, SmoothScale(rand_uniform(Rng(31), (5,), 0.5, 2.0)), CFG_W8)
    with pytest.raises(ValueError):
        w_hat[0, 0] = 1.0
    with pytest.raises(ValueError):
        w_hat *= 2.0


def test_forward_quant_calls_sharing_built_weights_agree_and_leave_them_unchanged():
    stack = random_block_stack(32, 2, 8)
    x = rand_normal(Rng(33), (4, 6, 8))
    scales = {l.name: SmoothScale(rand_uniform(Rng(34), (8,), 0.5, 2.0)) for _, l in stack.linears()}
    weights = quantized_weights(stack, scales, QuantConfig(4, "per_channel"))
    before = {name: w.tobytes() for name, w in weights.items()}
    first = forward_quant(stack, x, scales, weights, CFG_A8)
    second = forward_quant(stack, x, scales, weights, CFG_A8)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first.values(), second.values()))
    assert {name: w.tobytes() for name, w in weights.items()} == before


def test_single_layer_matches_hand_simulated_quantization():
    stack = single_linear_stack(6, 5, 4)
    lin = stack.layers[0]
    x = rand_normal(Rng(7), (3, 5))
    s = SmoothScale(rand_uniform(Rng(8), (5,), 0.5, 2.0))
    cfg_w = QuantConfig(4, "per_channel")
    cfg_a = QuantConfig(4, "per_token")
    want = (
        dequantize(quantize(x / s.values, cfg_a))
        @ dequantize(quantize(lin.weight * s.values, cfg_w)).T
        + lin.bias
    )
    got = forward_quant(stack, x, {"lin": s}, {"lin": quantized_weight(lin, s, cfg_w)}, cfg_a).output
    assert np.array_equal(got, want)


def test_forward_quant_requires_scales_and_granularities():
    stack = single_linear_stack(9, 4, 4)
    x = rand_normal(Rng(9), (2, 4))
    scales = _ones_scales(stack)
    with pytest.raises(ConfigError, match="lin"):
        forward_quant(stack, x, {}, {}, CFG_A8)
    with pytest.raises(ConfigError):
        forward_quant(stack, x, scales, quantized_weights(stack, scales, CFG_A8), CFG_A8)


def test_backward_single_linear_closed_form():
    stack = single_linear_stack(10, 5, 3)
    lin = stack.layers[0]
    x = rand_normal(Rng(10), (4, 5))
    grads = backward_token_grads(stack, x)
    y = x @ lin.weight.T + lin.bias
    want = (y / 4) @ lin.weight
    assert np.max(np.abs(grads[0] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(grads[1], y / 4)


def test_backward_zero_input_zero_bias():
    stack = LayerStack((Linear("lin", rand_normal(Rng(1), (3, 3)), np.zeros(3)),), 3)
    grads = backward_token_grads(stack, np.zeros((4, 3)))
    assert np.array_equal(grads[0], np.zeros((4, 3)))


@pytest.mark.parametrize("loss_kind", ["sum_sq_output", "ce_pseudo"])
@pytest.mark.parametrize("act", ["relu", "silu"])
def test_backward_matches_finite_differences(loss_kind, act):
    stack = random_block_stack(20, 3, 6, act=act)
    x = rand_normal(Rng(21), (5, 6))
    labels = Rng(22).generator().integers(0, 6, size=5) if loss_kind == "ce_pseudo" else None
    loss = ProxyLossSpec(loss_kind, labels)
    grads = backward_token_grads(stack, x, loss)
    g0 = grads[0]
    gen = Rng(23).generator()
    h = 1e-5
    for _ in range(20):
        i, j = int(gen.integers(0, 5)), int(gen.integers(0, 6))
        xp, xm = x.copy(), x.copy()
        xp[i, j] += h
        xm[i, j] -= h
        fd = (
            loss_value(forward_fp(stack, xp).output, loss)
            - loss_value(forward_fp(stack, xm).output, loss)
        ) / (2 * h)
        assert abs(g0[i, j] - fd) <= 1e-4 * max(abs(fd), 1e-9)


def test_grad_trace_mirrors_forward_trace():
    stack = random_block_stack(24, 2, 5)
    x = rand_normal(Rng(25), (3, 5))
    trace = forward_fp(stack, x)
    grads = backward_token_grads(stack, x)
    assert len(grads) == len(trace.values())
    for g, v in zip(grads, trace.values()):
        assert g.shape == v.shape


@pytest.mark.parametrize("loss_kind", ["sum_sq_output", "ce_pseudo"])
def test_backward_from_trace_equals_backward_token_grads(loss_kind):
    stack = random_block_stack(26, 3, 6)
    x = rand_normal(Rng(27), (4, 6))
    labels = np.arange(4) % 6 if loss_kind == "ce_pseudo" else None
    loss = ProxyLossSpec(loss_kind, labels)
    want = backward_token_grads(stack, x, loss)
    got = backward_from_trace(stack, forward_fp(stack, x), loss)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_forward_fp_saves_each_rmsnorm_r_and_silu_sigmoid_of_its_own_input():
    stack = LayerStack(random_block_stack(30, 2, 5).layers + (Activation("act_relu", "relu"),), 5)
    trace = forward_fp(stack, rand_normal(Rng(31), (2, 3, 5)))
    assert len(trace.saved) == len(stack.layers)
    for layer, x, saved in zip(stack.layers, trace.inputs, trace.saved):
        if isinstance(layer, RMSNorm):
            assert saved.tobytes() == np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + layer.eps).tobytes()
        elif isinstance(layer, Activation) and layer.fn == "silu":
            assert saved.tobytes() == (0.5 * (1.0 + np.tanh(0.5 * x))).tobytes()
        else:
            assert saved is None


@pytest.mark.parametrize("keep", [(1, 4), (4, 1), (4,), (0, 6), (6,), (2, 3), ()])
def test_backward_keeps_only_the_asked_gradients_and_stops_at_the_lowest(monkeypatch, keep):
    """Each kept entry has the bytes of the all-layer pass; the pass runs no layer below the lowest."""
    stack = random_block_stack(32, 2, 6)
    x = rand_normal(Rng(33), (4, 6))
    full = backward_token_grads(stack, x)
    calls = []
    real = model._layer_input_grad

    def counted(layer, *args):
        calls.append(layer.name)
        return real(layer, *args)

    monkeypatch.setattr(model, "_layer_input_grad", counted)
    got = backward_token_grads(stack, x, keep=keep)
    assert len(got) == len(full) == 7
    for l, g in enumerate(got):
        assert g is None if l not in keep else g.tobytes() == full[l].tobytes()
    assert calls == [layer.name for layer in stack.layers[min(keep, default=6):]][::-1]


def test_backward_from_trace_rejects_a_trace_without_saved_values():
    stack = random_block_stack(34, 1, 5)
    trace = forward_fp(stack, rand_normal(Rng(35), (2, 5)))
    with pytest.raises(ShapeError, match="saved"):
        backward_from_trace(stack, dataclasses.replace(trace, saved=()))


def test_backward_from_trace_rejects_another_stacks_trace():
    trace = forward_fp(random_block_stack(28, 1, 5), rand_normal(Rng(29), (2, 5)))
    with pytest.raises(ShapeError):
        backward_from_trace(random_block_stack(28, 2, 5), trace)


def test_quant_error_decreases_with_bits():
    stack = random_block_stack(26, 2, 8)
    x = rand_normal(Rng(27), (6, 8))
    y_fp = forward_fp(stack, x).output
    scales = _ones_scales(stack)
    errs = []
    for bits in (4, 6, 8, 12):
        y_q = forward_quant(
            stack,
            x,
            scales,
            quantized_weights(stack, scales, QuantConfig(bits, "per_channel")),
            QuantConfig(bits, "per_token"),
        ).output
        errs.append(float(np.max(np.abs(y_q - y_fp))))
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_ce_loss_requires_labels():
    with pytest.raises(ConfigError):
        ProxyLossSpec("ce_pseudo")
    with pytest.raises(ConfigError):
        ProxyLossSpec("other")


# --- checkpoint serialization -------------------------------------------------


def test_checkpoint_roundtrip_is_identity():
    stack = random_block_stack(30, 2, 6)
    blob = save_checkpoint(stack)
    again = load_checkpoint(blob)
    assert again.input_channels == stack.input_channels
    assert len(again.layers) == len(stack.layers)
    for a, b in zip(stack.layers, again.layers):
        assert type(a) is type(b) and a.name == b.name
        if isinstance(a, RMSNorm):
            assert np.array_equal(a.gain, b.gain) and a.eps == b.eps
        elif isinstance(a, Linear):
            assert np.array_equal(a.weight, b.weight) and np.array_equal(a.bias, b.bias)
        else:
            assert a.fn == b.fn
    assert save_checkpoint(again) == blob


# the two file formats that carry the layer table
LAYER_TABLE_FORMATS = ("checkpoint", "artifact")


def _layer_table_file(fmt: str):
    """(blob, loader, offset of the layer table) for one small stack."""
    stack = random_block_stack(31, 1, 4)
    if fmt == "checkpoint":
        return save_checkpoint(stack), load_checkpoint, 12
    norm, lin, act = stack.layers
    qlin = QuantizedLinear(lin.name, quantize(lin.weight, CFG_W8), lin.bias, np.full(4, 0.5))
    return save_quantized(QuantizedStack((norm, qlin, act), 4, 8, 8)), load_quantized, 14


def test_checkpoint_bad_magic():
    for fmt in LAYER_TABLE_FORMATS:
        blob, load, _ = _layer_table_file(fmt)
        with pytest.raises(CheckpointError) as err:
            load(bytes([blob[0] ^ 0xFF]) + blob[1:])
        assert err.value.code == "bad_magic"


def test_checkpoint_truncation_never_yields_partial_stack():
    for fmt in LAYER_TABLE_FORMATS:
        blob, load, _ = _layer_table_file(fmt)
        for cut in range(len(blob)):
            with pytest.raises(CheckpointError):
                load(blob[:cut])


def test_checkpoint_trailing_bytes_rejected():
    for fmt in LAYER_TABLE_FORMATS:
        blob, load, _ = _layer_table_file(fmt)
        with pytest.raises(CheckpointError) as err:
            load(blob + b"\x00")
        assert err.value.code == "trailing"


def _first_record(blob: bytes, table: int):
    """Offsets of the first layer's kind byte, name and body."""
    (name_len,) = struct.unpack_from("<H", blob, table + 5)
    return table + 4, table + 7, table + 7 + name_len


@pytest.mark.parametrize("fmt", LAYER_TABLE_FORMATS)
def test_layer_table_unknown_kind_rejected(fmt):
    blob, load, table = _layer_table_file(fmt)
    kind, _, _ = _first_record(blob, table)
    with pytest.raises(CheckpointError, match="unknown layer kind 9") as err:
        load(blob[:kind] + b"\x09" + blob[kind + 1 :])
    assert err.value.code == "bad_kind"
    # the activation record is the last one: u32 fn_code ends the payload
    with pytest.raises(CheckpointError, match="unknown activation code 7") as err:
        load(blob[:-4] + struct.pack("<I", 7))
    assert err.value.code == "bad_kind"


@pytest.mark.parametrize("fmt", LAYER_TABLE_FORMATS)
def test_layer_table_non_utf8_name_rejected(fmt):
    blob, load, table = _layer_table_file(fmt)
    _, name, _ = _first_record(blob, table)
    with pytest.raises(CheckpointError, match="invalid UTF-8") as err:
        load(blob[:name] + b"\xff" + blob[name + 1 :])
    assert err.value.code == "bad_text"


@pytest.mark.parametrize("fmt", LAYER_TABLE_FORMATS)
@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1e-6])
def test_layer_table_invalid_record_rejected(fmt, eps):
    blob, load, _ = _layer_table_file(fmt)
    good = struct.pack("<d", 1e-6)
    assert blob.count(good) == 1
    with pytest.raises(CheckpointError, match="layer 0: rmsnorm 'norm0': eps") as err:
        load(blob.replace(good, struct.pack("<d", eps)))
    assert err.value.code == "bad_layer"


def test_checkpoint_non_finite_weight_rejected():
    stack = single_linear_stack(3, 2, 2)
    good = struct.pack("<d", stack.layers[0].weight[1, 0])
    blob = save_checkpoint(stack)
    with pytest.raises(CheckpointError, match="non-finite") as err:
        load_checkpoint(blob.replace(good, struct.pack("<d", np.inf)))
    assert err.value.code == "bad_layer"


def test_artifact_header_and_flag_validated():
    blob, _, _ = _layer_table_file("artifact")
    with pytest.raises(CheckpointError, match="bits") as err:
        load_quantized(blob[:8] + b"\x01" + blob[9:])
    assert err.value.code == "bad_field"
    with pytest.raises(CheckpointError, match="bits") as err:
        load_quantized(blob[:9] + b"\x11" + blob[10:])
    assert err.value.code == "bad_field"
    # after the rmsnorm body (u32 C | f64[4] gain | f64 eps) comes the qlinear
    # record: kind | name_len | name | u32 C_out | u32 C_in | u8 has_input_scale
    _, _, body = _first_record(blob, 14)
    flag = body + (4 + 4 * 8 + 8) + (1 + 2 + len("lin0")) + 8
    assert blob[flag] == 1
    with pytest.raises(CheckpointError, match="input-scale flag 2") as err:
        load_quantized(blob[:flag] + b"\x02" + blob[flag + 1 :])
    assert err.value.code == "bad_field"


def test_checkpoint_dim_inconsistency_rejected():
    # two linears whose widths do not compose
    a = Linear("a", np.ones((3, 4)), np.zeros(3))
    b = Linear("b", np.ones((2, 5)), np.zeros(2))
    blob = save_checkpoint(LayerStack((a,), 4))
    # splice in a second incompatible layer by crafting a fresh payload
    import struct

    raw = bytearray(blob)
    raw[8 + 4 : 8 + 8] = struct.pack("<I", 2)
    raw += save_checkpoint(LayerStack((b,), 5))[16:]
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(bytes(raw))
    assert err.value.code == "bad_dims"


# --- calibration set serialization ---------------------------------------------


def test_calibset_roundtrip():
    acts = rand_normal(Rng(40), (3, 5, 4))
    modality = (rand_uniform(Rng(41), (3, 5)) > 0.5).astype(np.uint8)
    calib = CalibrationSet(acts, modality)
    blob = save_calibset(calib)
    again = load_calibset(blob)
    assert np.array_equal(again.activations, acts)
    assert np.array_equal(again.modality, modality)
    assert save_calibset(again) == blob


def _arrays(obj):
    """Every array a layer holds, through nested dataclasses."""
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            yield value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


# a file is read as bytes, so every array a loader returns must be a private,
# writable copy: (format, arrays in the file)
@pytest.mark.parametrize("fmt, count", [("checkpoint", 3), ("artifact", 5), ("calibset", 2)])
def test_loaded_arrays_are_writable_and_share_nothing_with_the_file(fmt, count):
    if fmt == "calibset":
        blob = save_calibset(CalibrationSet(rand_normal(Rng(43), (2, 3, 4)), np.ones((2, 3), dtype=np.uint8)))
        calib = load_calibset(blob)
        arrays = [calib.activations, calib.modality]
    else:
        blob, load, _ = _layer_table_file(fmt)
        arrays = [a for layer in load(blob).layers for a in _arrays(layer)]
    assert len(arrays) == count
    source = np.frombuffer(blob, np.uint8)
    for a in arrays:
        assert a.flags.writeable
        assert not np.shares_memory(a, source)


def test_calibset_truncation_and_magic():
    calib = CalibrationSet(rand_normal(Rng(42), (2, 3, 4)), np.zeros((2, 3), dtype=np.uint8))
    blob = save_calibset(calib)
    with pytest.raises(CheckpointError):
        load_calibset(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_calibset(b"X" + blob[1:])


def test_calibset_validates_modality():
    with pytest.raises(NumericError):
        CalibrationSet(np.zeros((1, 2, 3)), np.full((1, 2), 7, dtype=np.uint8))
    blob = bytearray(save_calibset(CalibrationSet(np.zeros((1, 2, 3)), np.zeros((1, 2), dtype=np.uint8))))
    blob[20] = 7  # the first modality tag follows magic | B | N | C
    with pytest.raises(CheckpointError, match="modality") as err:
        load_calibset(bytes(blob))
    assert err.value.code == "bad_field"


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
def test_calibset_refuses_activations_that_are_not_float64(dtype):
    with pytest.raises(NumericError, match=f"activations must be float64, got {np.dtype(dtype)}") as err:
        CalibrationSet(np.zeros((1, 2, 3), dtype=dtype), np.zeros((1, 2), dtype=np.uint8))
    assert "\n" not in str(err.value)


def test_calibset_stores_activations_in_c_order_and_copies_only_other_layouts():
    acts = rand_normal(Rng(44), (3, 4, 5))
    modality = np.zeros((3, 4), dtype=np.uint8)
    assert CalibrationSet(acts, modality).activations is acts
    for other in (np.asfortranarray(acts), np.repeat(acts, 2, axis=2)[:, :, ::2]):
        stored = CalibrationSet(other, modality).activations
        assert stored.flags.c_contiguous and not np.shares_memory(stored, other)
        assert stored.tobytes() == acts.tobytes()


def test_calibset_unallocatable_shape_rejected():
    # no activation bytes are needed, but (0, 2^32-1, 2^32-1) overflows numpy
    blob = b"TLQCAL01" + struct.pack("<III", 0, 0xFFFFFFFF, 0xFFFFFFFF)
    with pytest.raises(CheckpointError, match="cannot be allocated") as err:
        load_calibset(blob)
    assert err.value.code == "bad_dims"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_calibset_rejects_non_finite_activations(bad):
    acts = rand_normal(Rng(43), (3, 4, 5))
    acts[1, 2, 3] = bad
    acts[2, 0, 0] = bad  # only the first bad entry is named
    blob = save_calibset(CalibrationSet(acts, np.zeros((3, 4), dtype=np.uint8)))
    with pytest.raises(CheckpointError, match=r"sample 1, token 2, channel 3") as exc:
        load_calibset(blob)
    assert exc.value.code == "non_finite"


@pytest.mark.parametrize("b, n", [(0, 4), (2, 0), (0, 0)])
def test_calibset_rejects_empty_batch_or_token_axis(b, n):
    with pytest.raises(ShapeError, match="at least one sample and one token"):
        CalibrationSet(np.zeros((b, n, 3)), np.zeros((b, n), dtype=np.uint8))
    blob = b"TLQCAL01" + struct.pack("<III", b, n, 3)
    with pytest.raises(CheckpointError, match="at least one sample") as err:
        load_calibset(blob)
    assert err.value.code == "bad_field"


# every character str.splitlines splits on, and the two-character "\r\n"
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def checkpoint_with_linear_named(name: str, channels: int = 4) -> bytes:
    """Checkpoint bytes of one identity linear, built by `pack_layers` so that no `LayerStack` checks the name."""
    lin = Linear(name, np.eye(channels), np.zeros(channels))
    return CHECKPOINT_MAGIC + struct.pack("<I", channels) + pack_layers((lin,), _pack_linear)


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=repr)
def test_a_layer_name_holding_a_line_break_is_refused(brk):
    lin = Linear(f"lin{brk}0", np.eye(4), np.zeros(4))
    with pytest.raises(ConfigError, match="must not hold a line break"):
        LayerStack((lin,), 4)
    with pytest.raises(CheckpointError, match="must not hold a line break") as err:
        load_checkpoint(checkpoint_with_linear_named(lin.name))
    assert err.value.code == "bad_name"
    assert len(str(err.value).splitlines()) == 1


def _layout_digests(stack, x, scales, weights):
    """Bytes of the FP output, every gradient and the quantized output for one input."""
    grads = backward_token_grads(stack, x)
    out_q = forward_quant(stack, x, scales, weights, CFG_A8).output
    return forward_fp(stack, x).output.tobytes(), b"".join(g.tobytes() for g in grads), out_q.tobytes()


@pytest.mark.parametrize("layout", ["fortran", "strided"])
@pytest.mark.parametrize("block", [False, True], ids=["sample", "block"])
def test_forwards_and_backward_give_the_bytes_of_the_c_order_input(layout, block):
    stack = build_stack(5, 2, 32)
    acts = build_calibset(5, 3, 16, 32, visual_fraction=0.5).activations
    x = acts if block else acts[0]
    other = np.asfortranarray(x) if layout == "fortran" else np.repeat(x, 2, axis=-1)[..., ::2]
    assert not other.flags.c_contiguous
    scales = {lin.name: SmoothScale(np.linspace(0.5, 2.0, 32)) for _, lin in stack.linears()}
    weights = quantized_weights(stack, scales, CFG_W8)
    assert _layout_digests(stack, other, scales, weights) == _layout_digests(stack, x, scales, weights)
    # a C-order float64 input is not copied
    assert forward_fp(stack, x).inputs[0] is x
    assert forward_quant(stack, x, scales, weights, CFG_A8).inputs[0] is x


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
def test_forwards_and_backward_refuse_inputs_that_are_not_float64(dtype):
    stack = random_block_stack(45, 1, 4)
    scales = _ones_scales(stack)
    weights = quantized_weights(stack, scales, CFG_W8)
    x = np.ones((3, 4), dtype=dtype)
    calls = (
        lambda: forward_fp(stack, x),
        lambda: backward_token_grads(stack, x),
        lambda: forward_quant(stack, x, scales, weights, CFG_A8),
    )
    for call in calls:
        with pytest.raises(NumericError, match=f"stack input must be float64, got {np.dtype(dtype)}") as err:
            call()
        assert "\n" not in str(err.value)

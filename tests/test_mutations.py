"""Mutated payloads fail only with the format's own error.

Every decoder that reads bytes from outside the process is fed flipped,
truncated and extended copies of a valid payload. Files may raise only
CheckpointError and wire frames only ProtocolError; anything else (a numpy
ValueError, a UnicodeDecodeError, a layer's own ConfigError) would reach
the user as a traceback or the wrong exit code.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_block_stack
from tlq.calibration import (
    RatioGrid,
    calibrate,
    load_quantized,
    load_result,
    quantize_with_result,
    result_to_text,
    save_quantized,
)
from tlq.distcal import CalMessage, decode_message, encode_message
from tlq.errors import CheckpointError, ProtocolError
from tlq.model import CalibrationSet, load_calibset, load_checkpoint, save_calibset, save_checkpoint
from tlq.quantizer import QuantConfig
from tlq.tensor import Rng, rand_normal

CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")


def _payloads():
    """name -> (valid payload, decoder, the one error it may raise)."""
    stack = random_block_stack(50, 1, 3)
    xs = rand_normal(Rng(51), (2, 3, 3))
    result = calibrate(
        stack, xs, strategy="passact2", stat_mode="max", grid=RatioGrid(0.0, 1.0, 0.5), cfg_w=CFG_W, cfg_a=CFG_A
    )
    # small bodies, so that header, tag and shape bytes take a large share
    calib = CalibrationSet(xs[:, :, :1], np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8))
    tensor = CalMessage("ratio_fixed", 1, 0, seq=3, layer=1, ratio=0.5, tensor=np.ones((1, 2)), curve=((0.0, 1.0),))
    return {
        "checkpoint": (save_checkpoint(stack), load_checkpoint, CheckpointError),
        "calibset": (save_calibset(calib), load_calibset, CheckpointError),
        "artifact": (save_quantized(quantize_with_result(stack, result)), load_quantized, CheckpointError),
        "result": (result_to_text(result).encode("utf-8"), load_result, CheckpointError),
        "frame": (encode_message(tensor)[4:], decode_message, ProtocolError),
    }


PAYLOADS = _payloads()


@st.composite
def _mutated(draw, blob: bytes) -> bytes:
    """1-3 edits, each a byte flip, a truncation or appended bytes."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("flip", "truncate", "append")))
        if op == "flip" and out:
            i = draw(st.integers(0, len(out) - 1))
            out[i] ^= draw(st.sampled_from((0x80, 0xFF, 0x01)) | st.integers(1, 0xFF))
        elif op == "truncate":
            del out[draw(st.integers(0, len(out))) :]
        else:
            out += draw(st.binary(min_size=1, max_size=16))
    return bytes(out)


@pytest.mark.parametrize("name", sorted(PAYLOADS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_payload_raises_only_its_format_error(name, data):
    blob, decode, error = PAYLOADS[name]
    mutated = data.draw(_mutated(blob), label="mutated")
    try:
        decode(mutated)
    except error:
        pass

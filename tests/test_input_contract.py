"""One input contract at every public entry that reads an activation batch.

A non-C-order view (column-major, channel-strided, or reversed through
negative strides) gives the bytes of its C-order copy, and a batch that is
not float64 ends in one NumericError line before any work.
"""

from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_block_stack
from tlq.calibration import RatioGrid, calibrate, result_to_text, scales_from_result
from tlq.distcal import run_distributed_calibration
from tlq.errors import NumericError
from tlq.model import CalibrationSet, backward_token_grads, forward_fp, forward_quant, quantized_weights
from tlq.quantizer import QuantConfig, quantize
from tlq.report import evaluate
from tlq.tensor import Rng, rand_normal

C = 8
CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")
OPTS = dict(strategy="passact2", stat_mode="topk", grid=RatioGrid(0.0, 1.0, 0.5), cfg_w=CFG_W, cfg_a=CFG_A)
STACK = random_block_stack(90, 1, C)


@cache
def _result():
    return calibrate(STACK, rand_normal(Rng(91), (2, 4, C)), **OPTS)


def _trace_bytes(trace) -> bytes:
    return b"".join(v.tobytes() for v in trace.values())


def _quantized(x):
    qt = quantize(x[0], CFG_A)  # rank 2: the first sample's tokens
    return qt.q.tobytes() + qt.scales.tobytes()


def _distributed(x):
    res, mem = run_distributed_calibration(STACK, x, workers=2, **OPTS)
    return result_to_text(res) + mem.to_text()


def _forward_quant(x):
    scales = scales_from_result(_result())
    return _trace_bytes(forward_quant(STACK, x, scales, quantized_weights(STACK, scales, CFG_W), CFG_A))


def _evaluate(x):
    return evaluate(STACK, _result(), CalibrationSet(x, np.zeros(x.shape[:2], dtype=np.uint8))).to_text()


# entry -> a call on a (B, N, C) batch whose output is compared as bytes or text
ENTRIES = {
    "calibrate": lambda x: result_to_text(calibrate(STACK, x, **OPTS)),
    "run_distributed_calibration": _distributed,
    "evaluate": _evaluate,
    "forward_fp": lambda x: _trace_bytes(forward_fp(STACK, x)),
    "forward_quant": _forward_quant,
    "backward_token_grads": lambda x: b"".join(g.tobytes() for g in backward_token_grads(STACK, x)),
    "quantize": _quantized,
}

LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": lambda x: np.repeat(x, 2, axis=-1)[..., ::2],
    "reversed": lambda x: np.flip(np.flip(x).copy()),  # every axis walked backwards
}


@pytest.mark.parametrize("entry", ENTRIES)
@given(
    layout=st.sampled_from(sorted(LAYOUTS)),
    b=st.integers(1, 3),
    n=st.integers(3, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=6, deadline=None)
def test_a_non_c_order_batch_gives_the_bytes_of_its_c_order_copy(entry, layout, b, n, seed):
    x = rand_normal(Rng(seed), (b, n, C))
    view = LAYOUTS[layout](x)
    assert not view.flags.c_contiguous and np.array_equal(view, x)
    assert ENTRIES[entry](view) == ENTRIES[entry](x)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64, np.uint8])
@pytest.mark.parametrize("entry", ENTRIES)
@given(b=st.integers(1, 3), n=st.integers(3, 5))
@settings(max_examples=3, deadline=None)
def test_a_batch_that_is_not_float64_fails_in_one_numeric_error_line(entry, dtype, b, n):
    x = np.ones((b, n, C), dtype=dtype)
    with pytest.raises(NumericError, match=rf"float64( input)?, got {np.dtype(dtype)}$") as err:
        ENTRIES[entry](x)
    assert "\n" not in str(err.value)

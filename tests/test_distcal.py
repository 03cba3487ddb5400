import hashlib
import itertools
import math
import struct
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlq import distcal
from tlq.calibration import RatioGrid, calibrate, result_to_text
from tlq.distcal import (
    CalMessage,
    InProcessTransport,
    MemoryAccount,
    SocketTransport,
    _cal_worker_loop,
    _WorkerCtx,
    baseline_peak,
    decode_message,
    encode_message,
    run_distributed_calibration,
)
from tlq.errors import ConfigError, LedgerError, ProtocolError
from tlq.fixtures import build_calibset, build_stack
from tlq.quantizer import QuantConfig
from tlq.tensor import Rng, rand_normal

CFG_W = QuantConfig(4, "per_channel")
CFG_A = QuantConfig(6, "per_token")


# --- memory accounts ------------------------------------------------------------


def test_ledger_running_peak():
    account = MemoryAccount()
    account.alloc(100, "a")
    account.alloc(50, "b")
    account.free(100, "a")
    assert account.current == 50
    assert account.peak == 150


def test_ledger_rejects_zero_alloc_and_overfree():
    account = MemoryAccount()
    with pytest.raises(LedgerError):
        account.alloc(0, "zero")
    account.alloc(10, "a")
    with pytest.raises(LedgerError):
        account.free(11, "a")


@given(st.lists(st.integers(1, 1000), min_size=1, max_size=30))
@settings(max_examples=50)
def test_ledger_peak_matches_running_max_oracle(sizes):
    account = MemoryAccount()
    held = []
    current = peak = 0
    for i, nbytes in enumerate(sizes):
        if held and i % 3 == 2:
            freed = held.pop()
            account.free(freed, "op")
            current -= freed
        account.alloc(nbytes, "op")
        held.append(nbytes)
        current += nbytes
        peak = max(peak, current)
    assert account.current == current
    assert account.peak == peak
    assert len(account.events) > 0


def test_ledger_event_ticks_are_per_worker_monotone():
    a, b = MemoryAccount(), MemoryAccount()
    a.alloc(5, "a")
    b.alloc(6, "b")
    a.alloc(7, "c")
    ticks = [e.tick for e in a.events]
    assert ticks == sorted(ticks) == [1, 2]


# --- baseline ----------------------------------------------------------------------


def test_baseline_peak_documented_fixture():
    assert baseline_peak((64, 64), (8, 16)) == 294912


def test_baseline_peak_batch_linearity():
    b1 = baseline_peak((64, 64), (8, 16))
    b2 = baseline_peak((64, 64), (16, 16))
    layer = 64 * 64 * 8
    assert b2 - layer == 2 * (b1 - layer)


# --- wire format -----------------------------------------------------------------


def _roundtrip(msg):
    frame = encode_message(msg)
    return decode_message(frame[4:])


def test_wire_roundtrip_layer_output():
    t = rand_normal(Rng(1), (3, 4, 5))
    msg = CalMessage("layer_output", 0, 2, seq=7, layer=3, stream="q", ratio=0.35, tensor=t, count=21)
    back = _roundtrip(msg)
    assert back.kind == "layer_output" and back.seq == 7
    assert back.layer == 3 and back.stream == "q" and back.ratio == 0.35
    assert np.array_equal(back.tensor, t)


def test_wire_roundtrip_all_small_kinds():
    stat = CalMessage("stat_request", 0, 1, seq=0, layer=2, tensor=np.arange(4.0), count=21)
    back = _roundtrip(stat)
    assert back.layer == 2 and back.count == 21 and np.array_equal(back.tensor, np.arange(4.0))

    rep = _roundtrip(CalMessage("loss_report", 2, 1, seq=1, layer=2, ratio=0.5, loss=1.25))
    assert (rep.layer, rep.ratio, rep.loss) == (2, 0.5, 1.25)

    fixed = _roundtrip(
        CalMessage("ratio_fixed", 1, 0, seq=2, layer=2, ratio=0.5, tensor=np.ones(3), curve=((0.0, 1.0), (0.5, 0.5)))
    )
    assert fixed.curve == ((0.0, 1.0), (0.5, 0.5))

    assert _roundtrip(CalMessage("done", 0, 1, seq=3)).kind == "done"
    assert _roundtrip(CalMessage("abort", 0, 1, seq=4, reason="boom")).reason == "boom"


def test_wire_checksum_detects_corruption():
    msg = CalMessage("layer_output", 0, 1, seq=0, layer=0, stream="fp", tensor=np.ones((2, 2)), count=1)
    frame = bytearray(encode_message(msg))
    frame[-3] ^= 0xFF  # flip a payload byte
    with pytest.raises(ProtocolError, match="checksum"):
        decode_message(bytes(frame[4:]))


def test_wire_truncation_rejected():
    frame = encode_message(CalMessage("done", 0, 1, seq=0))
    with pytest.raises(ProtocolError):
        decode_message(frame[4:-1] if len(frame) > 5 else b"")


def test_wire_trailing_bytes_rejected():
    frame = encode_message(CalMessage("loss_report", 2, 1, seq=0, layer=0, ratio=0.5, loss=1.0))
    with pytest.raises(ProtocolError, match="trailing"):
        decode_message(frame[4:] + b"\x00")


def test_wire_forged_shape_is_truncated():
    frame = bytearray(encode_message(
        CalMessage("stat_request", 0, 1, seq=0, layer=0, tensor=np.ones((2, 2)), count=1)
    )[4:])
    # header (13) | u32 layer | u32 count (8) | u8 ndim | u32 dims
    frame[22:30] = b"\xff" * 8  # 2^64-ish elements: too many for numpy to count
    with pytest.raises(ProtocolError, match="truncated"):
        decode_message(bytes(frame))


@pytest.mark.parametrize("shape", [(0, 0xFFFFFFFF, 0xFFFFFFFF), (1,) * 65])
def test_wire_unallocatable_shape_rejected(shape):
    # length prefix (4) | header (13) | u32 layer | u32 count (8) | tensor
    frame = encode_message(
        CalMessage("stat_request", 0, 1, seq=0, layer=0, tensor=np.ones(1), count=1)
    )[4:25] + struct.pack(f"<B{len(shape)}I", len(shape), *shape)
    frame += struct.pack("<I", zlib.crc32(b"")) + b"\x00" * 8 * math.prod(shape)
    with pytest.raises(ProtocolError, match="bad_dims"):
        decode_message(frame)


def test_wire_unknown_stream_code_rejected():
    frame = bytearray(encode_message(
        CalMessage("layer_output", 0, 2, seq=0, layer=0, stream="fp", tensor=np.ones(2), count=1)
    )[4:])
    # header (13) | u32 layer | u8 stream
    assert frame[17] == 0
    frame[17] = 7
    with pytest.raises(ProtocolError, match="unknown stream code 7"):
        decode_message(bytes(frame))


def test_wire_non_utf8_abort_reason_rejected():
    frame = encode_message(CalMessage("abort", 0, 1, seq=0, reason="boom"))[4:]
    with pytest.raises(ProtocolError, match="bad_text"):
        decode_message(frame[:-1] + b"\xff")


def test_transport_rejects_stale_sequence():
    chans = InProcessTransport([0, 1])
    chans.send(CalMessage("done", 0, 1))
    chans.recv(1, 0, timeout=1.0)
    # replay an already-consumed sequence number
    chans._queues[(0, 1)].put(CalMessage("done", 0, 1, seq=0))
    with pytest.raises(ProtocolError, match="out-of-order"):
        chans.recv(1, 0, timeout=1.0)


def test_transport_timeout():
    chans = InProcessTransport([0, 1])
    with pytest.raises(ProtocolError, match="timeout"):
        chans.recv(1, 0, timeout=0.05)
    socks = SocketTransport([0, 1])
    with pytest.raises(ProtocolError, match="timeout"):
        socks.recv(1, 0, timeout=0.05)
    socks.close()


def test_socket_transport_carries_tensors_exactly():
    chans = SocketTransport([0, 1])
    t = rand_normal(Rng(2), (8, 16))
    chans.send(CalMessage("layer_output", 0, 1, layer=0, stream="fp", tensor=t, count=1))
    got = chans.recv(1, 0, timeout=2.0)
    assert np.array_equal(got.tensor, t)
    chans.close()


def _stat(layer):
    return CalMessage("stat_request", 0, 1, layer=layer, count=1, tensor=np.ones(2))


def _output(stream, layer):
    return CalMessage("layer_output", 0, 1, layer=layer, stream=stream, ratio=0.0, tensor=np.ones(2), count=1)


# one case per receive of the scale and loss workers: the loop, the inline
# fp output, a quantized output and a loss report
@pytest.mark.parametrize("workers, messages, error", [
    pytest.param(2, [CalMessage("loss_report", 0, 1, layer=0, ratio=0.0, loss=1.0)], "unexpected loss_report",
                 id="loop"),
    pytest.param(2, [_stat(0), _output("fp", 1), _output("q", 1)], r"expected layer_output \(layer 0, stream fp\)",
                 id="inline_fp"),
    pytest.param(2, [_stat(0), _output("fp", 0), _output("q", 1)], r"expected layer_output \(layer 0, stream q\)",
                 id="q_output"),
    pytest.param(3, [_stat(0), CalMessage("loss_report", 2, 1, layer=1, ratio=0.0, loss=1.0)],
                 r"expected loss_report \(layer 0, stream None\)", id="loss_report"),
])
def test_worker_rejects_out_of_phase_message(workers, messages, error):
    chans = InProcessTransport(range(workers))
    for msg in messages + [CalMessage("done", 0, 1)]:
        chans.send(msg)
    ctx = _WorkerCtx(1, chans, MemoryAccount(), timeout=1.0)
    with pytest.raises(ProtocolError, match=error):
        _cal_worker_loop(ctx)


# --- distributed equivalence -------------------------------------------------------


def _fixture(seed=0, b=4, n=8, c=16, depth=2):
    stack = build_stack(seed, depth, c)
    calib = build_calibset(seed, b, n, c, visual_fraction=0.5)
    return stack, calib.activations


def test_two_worker_in_process_equivalence():
    stack, acts = _fixture()
    single = calibrate(stack, acts, strategy="passact2", stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A)
    dist, mem = run_distributed_calibration(
        stack, acts, workers=2, transport="in_process", strategy="passact2", stat_mode="topk",
        cfg_w=CFG_W, cfg_a=CFG_A,
    )
    assert result_to_text(dist) == result_to_text(single)
    assert all(w.current_bytes == 0 for w in mem.workers)


def test_three_worker_socket_equivalence():
    stack, acts = _fixture(seed=3)
    single = calibrate(stack, acts, strategy="passact1", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A)
    dist, mem = run_distributed_calibration(
        stack, acts, workers=3, transport="sockets", strategy="passact1", stat_mode="max",
        cfg_w=CFG_W, cfg_a=CFG_A,
    )
    assert result_to_text(dist) == result_to_text(single)
    assert all(w.current_bytes == 0 for w in mem.workers)


def _run_keeping_accounts(monkeypatch, stack, acts, workers, transport="in_process", strategy="passact2",
                          stat_mode="max", **opts):
    """Run a distributed calibration; returns its memory report and every worker's account."""
    accounts = []

    class KeptAccount(MemoryAccount):
        def __init__(self):
            super().__init__()
            accounts.append(self)

    monkeypatch.setattr(distcal, "MemoryAccount", KeptAccount)
    _, mem = run_distributed_calibration(
        stack, acts, workers=workers, transport=transport, strategy=strategy, stat_mode=stat_mode,
        cfg_w=CFG_W, cfg_a=CFG_A, **opts,
    )
    return mem, accounts


def _tags_by_layer(account):
    tags = {}
    for event in account.events:
        name, layer = event.tag.rstrip("]").split("[L")
        tags.setdefault(int(layer), set()).add(name)
    return tags


def test_scheduler_separates_scale_and_loss_roles(monkeypatch):
    stack, acts = _fixture(seed=4)
    linears = [i for i, _ in stack.linears()]
    mem, accounts = _run_keeping_accounts(monkeypatch, stack, acts, workers=3)
    peaks = {w.worker: w.peak_bytes for w in mem.workers}
    # worker 1 carries the stat/scale bookkeeping, worker 2 the output tensors
    assert peaks[1] < peaks[2] < peaks[0]
    assert _tags_by_layer(accounts[1]) == {i: {"x_stat", "curve", "scale"} for i in linears}
    assert _tags_by_layer(accounts[2]) == {i: {"y_fp", "y_q", "curve"} for i in linears}
    # with 2 workers, worker 1 holds both roles
    _, accounts = _run_keeping_accounts(monkeypatch, stack, acts, workers=2)
    assert _tags_by_layer(accounts[1]) == {i: {"x_stat", "curve", "scale", "y_fp", "y_q"} for i in linears}


# sha256 of every worker's full event log over the matrix below; event sizes
# depend only on tensor shapes, so the digest does not depend on the BLAS
_EVENT_LOG_DIGEST = "4cf6ef7a8ea1a53dc8ffb940881ef620925acc358ade1322122fd11138fe8473"


def test_ledger_event_logs_are_pinned(monkeypatch):
    stack = build_stack(5, 2, 16)
    acts = build_calibset(5, 4, 8, 16, visual_fraction=0.5).activations
    digest = hashlib.sha256()
    matrix = itertools.product((2, 3), ("in_process", "sockets"), ("none", "passact1", "passact2"))
    for workers, transport, strategy in matrix:
        _, accounts = _run_keeping_accounts(
            monkeypatch, stack, acts, workers, transport, strategy, stat_mode="topk", grid=RatioGrid(0.0, 1.0, 0.25),
        )
        for worker, account in enumerate(accounts):
            for e in account.events:
                digest.update(f"{workers} {transport} {strategy} {worker} {e.tick} {e.delta} {e.tag}\n".encode())
    assert digest.hexdigest() == _EVENT_LOG_DIGEST


def test_memory_report_text_shape():
    stack, acts = _fixture(seed=5, depth=1)
    _, mem = run_distributed_calibration(
        stack, acts, workers=2, transport="in_process", strategy="passact2", stat_mode="max",
        cfg_w=CFG_W, cfg_a=CFG_A,
    )
    text = mem.to_text()
    assert text.startswith("tlq-memory-report v1\n")
    assert f"baseline_bytes {mem.baseline_bytes}" in text
    assert text.rstrip().endswith("end")


def test_documented_memory_fixture_peaks():
    stack = build_stack(5, 1, 64)
    calib = build_calibset(5, 8, 16, 64, visual_fraction=0.5)
    _, mem = run_distributed_calibration(
        stack, calib.activations, workers=3, transport="in_process",
        strategy="passact2", stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A,
    )
    assert mem.baseline_bytes == 294912
    peaks = {w.worker: w.peak_bytes for w in mem.workers}
    envelope = len(encode_message(
        CalMessage("layer_output", 0, 2, seq=0, layer=0, stream="fp",
                   tensor=np.zeros((8, 16, 64)), count=21)
    ))
    assert abs(peaks[0] - 163840) <= envelope
    # loss worker holds both outputs plus the curve buffer
    y = 8 * 16 * 64 * 8
    assert peaks[2] <= 2 * y + 21 * 16 + envelope
    assert mem.max_peak() < mem.baseline_bytes


def test_worker_crash_aborts_without_result():
    stack, acts = _fixture(seed=6, depth=1)
    t0 = time.time()
    with pytest.raises(ProtocolError):
        run_distributed_calibration(
            stack, acts, workers=2, transport="in_process", strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=0.5,
            fault_injection={1: 3},
        )
    assert time.time() - t0 < 10


def test_socket_loss_worker_crash_aborts_within_bound():
    # each 1 MiB y_q frame overflows the socket buffer of the crashed loss
    # worker, so without a send deadline the coordinator blocks forever
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations
    outcome = []

    def run():
        try:
            run_distributed_calibration(
                stack, acts, workers=3, transport="sockets", strategy="passact2",
                stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=1.0,
                fault_injection={2: 3},
            )
            outcome.append(None)
        except Exception as exc:  # noqa: BLE001 - inspected below
            outcome.append(exc)

    t0 = time.time()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "distributed run still blocked after 10 s"
    # the blocked send costs one timeout; the abort broadcast must not add another
    assert time.time() - t0 < 1.5
    assert isinstance(outcome[0], ProtocolError)


# the C08 fixture's exact memory report: worker 0 is the infer worker, 1 holds
# the statistic and scale, 2 the loss outputs; topk adds 16 grad-pass events
_C08_REPORT = """tlq-memory-report v1
baseline_bytes 294912
workers 3
worker 0 roles infer peak 163840 current 0 events {events}
worker 1 roles loss,scale peak 1024 current 0 events 26
worker 2 roles loss,scale peak 131392 current 0 events 66
end
"""


@pytest.mark.parametrize("transport", ["in_process", "sockets"])
@pytest.mark.parametrize("stat_mode, infer_events", [("max", 56), ("topk", 72)])
def test_memory_report_text_is_pinned(transport, stat_mode, infer_events):
    stack = build_stack(5, 1, 64)
    calib = build_calibset(5, 8, 16, 64, visual_fraction=0.5)
    _, mem = run_distributed_calibration(
        stack, calib.activations, workers=3, transport=transport,
        strategy="passact2", stat_mode=stat_mode, cfg_w=CFG_W, cfg_a=CFG_A,
    )
    assert mem.to_text() == _C08_REPORT.format(events=infer_events)


@pytest.mark.parametrize("transport", ["in_process", "sockets"])
def test_sqrt_stat_distributed_equivalence(transport):
    stack, acts = _fixture(seed=8)
    single = calibrate(stack, acts, strategy="passact2", stat_mode="sqrt", cfg_w=CFG_W, cfg_a=CFG_A)
    dist, _ = run_distributed_calibration(
        stack, acts, workers=3, transport=transport, strategy="passact2", stat_mode="sqrt",
        cfg_w=CFG_W, cfg_a=CFG_A,
    )
    assert result_to_text(dist) == result_to_text(single)
    assert all(row.scale.origin == "sqrt_baseline" for row in dist.layers)


def test_worker_validation(monkeypatch):
    stack, acts = _fixture(seed=7, depth=1)
    # rejected before any thread or socket exists
    monkeypatch.setattr(distcal, "make_transport", lambda *args: pytest.fail("transport was built"))
    before = threading.active_count()
    for workers in (1, 0, -2, 4, 10):
        with pytest.raises(ConfigError, match="2 or 3 workers"):
            run_distributed_calibration(stack, acts, workers=workers, transport="sockets", cfg_w=CFG_W, cfg_a=CFG_A)
    assert threading.active_count() <= before


@pytest.mark.parametrize("timeout", [-1.0, 0.0, math.nan, math.inf, 1e12])
def test_bad_timeout_fails_before_any_worker_starts(timeout):
    stack, acts = _fixture(seed=7, depth=1)
    before = threading.active_count()
    with pytest.raises(ConfigError, match="timeout"):
        run_distributed_calibration(stack, acts, timeout=timeout, cfg_w=CFG_W, cfg_a=CFG_A)
    assert threading.active_count() <= before

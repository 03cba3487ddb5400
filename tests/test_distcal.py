import collections
import hashlib
import itertools
import math
import re
import resource
import struct
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import faulty_transport
from tlq import distcal
from tlq.calibration import RatioGrid, calibrate, result_to_text
from tlq.distcal import (
    CalMessage,
    InProcessTransport,
    MemoryAccount,
    SocketTransport,
    TRANSPORTS,
    _cal_worker_loop,
    _WorkerCtx,
    baseline_peak,
    decode_message,
    encode_message,
    run_distributed_calibration,
)
from tlq.errors import ConfigError, LedgerError, NumericError, ProtocolError, TlqError
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


def test_encoding_an_unknown_kind_is_a_protocol_error():
    with pytest.raises(ProtocolError, match=r"^cannot encode message kind 'bogus'$"):
        encode_message(CalMessage("bogus", 0, 1, seq=0))


@pytest.mark.parametrize("msg, error", [
    (CalMessage("loss_report", 2, 1, seq=0, layer=0, ratio=0.5), "cannot encode loss_report message without loss"),
    (CalMessage("stat_request", 0, 1, seq=0, layer=0, count=1), "cannot encode stat_request message without tensor"),
    (CalMessage("ratio_fixed", 1, 0, seq=0, layer=0, ratio=0.5, tensor=np.ones(2)),
     "cannot encode ratio_fixed message without curve"),
    (CalMessage("layer_output", 0, 2, seq=0, stream="q", count=1, tensor=np.ones(2)),
     "cannot encode layer_output message without layer"),
    (CalMessage("done", 0, 1), "cannot encode done message: argument out of range"),
    (CalMessage("layer_output", 0, 2, seq=0, layer=0, tensor=np.ones(2)),
     "cannot encode layer_output message without stream, count"),
    (CalMessage("layer_output", 0, 2, seq=0, layer=0, stream="x", count=1, tensor=np.ones(2)),
     "cannot encode layer_output stream 'x'"),
])
def test_encoding_a_message_with_a_missing_or_bad_field_is_a_protocol_error(msg, error):
    with pytest.raises(ProtocolError, match=rf"^{re.escape(error)}$"):
        encode_message(msg)


@pytest.mark.parametrize("code", [0, len(distcal.MSG_KINDS) + 1, 255])
def test_decoding_an_unknown_kind_code_is_a_protocol_error(code):
    frame = bytearray(encode_message(CalMessage("done", 0, 1, seq=0))[4:])
    frame[0] = code  # header: u8 kind first
    with pytest.raises(ProtocolError, match=rf"^unknown message kind code {code}$"):
        decode_message(bytes(frame))


def _readme_wire_kinds() -> dict:
    """code -> (kind, its fields) for each entry of README's wire-protocol block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Wire protocol", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    entries = {}
    for line in block.split("kinds:", 1)[1].split("\ntensor:", 1)[0].splitlines():
        if m := re.match(r"\s*(\d+) (\w+):?(.*)", line):
            code, kind, rest = int(m[1]), m[2], m[3]
            entries[code] = (kind, [rest])
        else:
            entries[code][1].append(line)
    return {code: (kind, [f.strip() for f in " ".join(lines).split("|") if f.strip()])
            for code, (kind, lines) in entries.items()}


def test_readme_wire_protocol_states_the_codec_layouts():
    entries = _readme_wire_kinds()
    assert sorted(entries) == list(range(1, len(distcal.MSG_KINDS) + 1))
    for code, (kind, fields) in entries.items():
        assert distcal.MSG_KINDS[code - 1] == kind
        fmt, _, has_tensor = distcal._LAYOUTS[kind]
        fixed = itertools.takewhile(lambda f: not f.startswith(("tensor", "u16 len", "u32 n")), fields)
        assert "<" + "".join({"u8": "B", "u16": "H", "u32": "I", "f64": "d"}[f.split()[0]] for f in fixed) == fmt, kind
        assert any(f.startswith("tensor") for f in fields) == has_tensor, kind


def test_transport_rejects_stale_sequence():
    chans = InProcessTransport([0, 1])
    chans.send(CalMessage("done", 0, 1))
    chans.recv(1, 0, timeout=1.0)
    # replay an already-consumed sequence number
    chans._queues[(0, 1)].append(CalMessage("done", 0, 1, seq=0))
    with pytest.raises(ProtocolError, match="out-of-order"):
        chans.recv(1, 0, timeout=1.0)


def test_an_unknown_transport_fails_before_any_worker_starts(monkeypatch):
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self.name) or start(self))
    stack, acts = _fixture()
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=r"transport must be one of \('in_process', 'sockets'\), got 'bogus'"):
        run_distributed_calibration(stack, acts, transport="bogus", cfg_w=CFG_W, cfg_a=CFG_A)
    assert started == []
    assert threading.active_count() == threads


def test_transport_timeout():
    chans = InProcessTransport([0, 1])
    with pytest.raises(ProtocolError, match="timeout"):
        chans.recv(1, 0, timeout=0.05)
    socks = SocketTransport([0, 1])
    with pytest.raises(ProtocolError, match="timeout"):
        socks.recv(1, 0, timeout=0.05)
    socks.close()


def test_full_in_process_channel_fails_a_send_after_its_timeout():
    chans = InProcessTransport([0, 1])
    chans.timeout = 0.05
    for _ in range(distcal.CHANNEL_FRAMES):
        chans.send(CalMessage("done", 0, 1))
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="channel full"):
        chans.send(CalMessage("done", 0, 1))
    assert 0.05 <= time.monotonic() - start < 0.5


def test_transport_names_a_sequence_gap():
    chans = InProcessTransport([0, 1])
    chans._queues[(0, 1)].extend([CalMessage("done", 0, 1, seq=0), CalMessage("done", 0, 1, seq=2)])
    chans.recv(1, 0, timeout=1.0)
    with pytest.raises(ProtocolError, match=r"channel \(0, 1\): expected seq 1, got 2"):
        chans.recv(1, 0, timeout=1.0)


@pytest.mark.parametrize("transport", ["in_process", "sockets"])
def test_closing_a_workers_ends_stops_only_its_channels(transport):
    chans = distcal.make_transport(transport, [0, 1, 2])
    chans.timeout = 5.0
    if transport == "in_process":  # fill channel 0->1
        for _ in range(distcal.CHANNEL_FRAMES):
            chans.send(CalMessage("done", 0, 1))
        frame = CalMessage("done", 0, 1)
    else:  # 8 MiB fill the socket buffers
        frame = CalMessage("layer_output", 0, 1, layer=0, stream="fp", tensor=np.zeros((1024, 1024)), count=1)
    timer = threading.Timer(0.2, chans.close_ends, args=(1,))
    timer.start()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=r"send to worker 1 \(sender 0\) failed"):
        chans.send(frame)  # worker 1 never reads; its exit closes channel 0->1
    assert time.monotonic() - start < 1.0
    timer.join()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=r"send to worker 1 \(sender 0\) failed"):
        chans.send(CalMessage("done", 0, 1))
    assert time.monotonic() - start < 0.5
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=r"connection closed while waiting for worker 1 \(receiver 2\)"):
        chans.recv(2, 1, timeout=1.0)
    assert time.monotonic() - start < 0.5
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=r"timeout waiting for worker 0 \(receiver 2\)"):
        chans.recv(2, 0, timeout=0.2)  # channel 0->2 is not worker 1's: its close does not end this wait
    assert time.monotonic() - start >= 0.2
    chans.close()


def test_socket_transport_carries_tensors_exactly():
    chans = SocketTransport([0, 1])
    t = rand_normal(Rng(2), (8, 16))
    before = t.copy()
    chans.send(CalMessage("layer_output", 0, 1, layer=0, stream="fp", tensor=t, count=1))
    t[...] = 0.0  # the send has returned, so its bytes are already on the wire
    got = chans.recv(1, 0, timeout=2.0)
    chans.close()
    assert np.array_equal(got.tensor, before)
    assert got.tensor.flags.writeable


def _read_raw(sock, n):
    """Exactly n bytes from a socket, as written by the peer."""
    raw = b""
    while len(raw) < n:
        chunk = sock.recv(n - len(raw))
        assert chunk, "peer closed early"
        raw += chunk
    return raw


# one message of every kind; the last layer_output carries a transposed
# (non-contiguous) view, which goes out as the bytes of its C-order copy
_TRANSPOSED = rand_normal(Rng(3), (4, 6)).T
_EVERY_KIND = [
    CalMessage("layer_output", 0, 2, layer=1, stream="fp", count=3, tensor=rand_normal(Rng(4), (2, 3, 5))),
    CalMessage("layer_output", 0, 2, layer=1, stream="q", ratio=0.25, count=3, tensor=rand_normal(Rng(5), (2, 3, 5))),
    CalMessage("stat_request", 0, 1, layer=1, count=3, tensor=np.abs(rand_normal(Rng(6), (5,)))),
    CalMessage("loss_report", 2, 1, layer=1, ratio=0.25, loss=1.5),
    CalMessage("ratio_fixed", 1, 0, layer=1, ratio=0.25, tensor=np.ones(5), curve=((0.0, 2.0), (0.25, 1.5))),
    CalMessage("done", 0, 1),
    CalMessage("layer_output", 0, 2, layer=2, stream="q", ratio=0.5, count=3, tensor=_TRANSPOSED),
]


# sha256 of the seven frames: the wire format is fixed, whatever the encoder does
_EVERY_KIND_SHA256 = "30678fcb071a4cc1ebf16dffacac0a0c447278d74a0d7b9e17576539b5d86bf8"


def test_socket_wire_bytes_are_pinned_to_encode_message():
    assert not _TRANSPOSED.flags.c_contiguous
    chans = SocketTransport([0, 1, 2])
    sent = {}
    wire = hashlib.sha256()
    try:
        for msg in _EVERY_KIND:
            chans.send(msg)
            seq = sent[(msg.sender, msg.receiver)] = sent.get((msg.sender, msg.receiver), -1) + 1
            expected = encode_message(replace(msg, seq=seq, tensor=(
                None if msg.tensor is None else np.ascontiguousarray(msg.tensor))))
            raw = _read_raw(chans._ends[(msg.receiver, msg.sender)], len(expected))
            assert raw == expected
            wire.update(raw)
        for sock in chans._ends.values():  # nothing beyond the frames
            sock.setblocking(False)
            with pytest.raises(BlockingIOError):
                sock.recv(1)
    finally:
        chans.close()
    assert wire.hexdigest() == _EVERY_KIND_SHA256


def test_frame_written_one_byte_at_a_time_decodes_to_the_same_message():
    chans = SocketTransport([0, 1])
    msg = _EVERY_KIND[4]  # ratio_fixed: fields, a tensor and a trailing curve
    frame = encode_message(replace(msg, sender=0, receiver=1, seq=0))

    def trickle():
        for i in range(len(frame)):
            chans._ends[(0, 1)].sendall(frame[i : i + 1])
            time.sleep(0.0005)

    writer = threading.Thread(target=trickle, daemon=True)
    writer.start()
    try:
        got = chans.recv(1, 0, timeout=5.0)
        writer.join(timeout=5.0)
        assert not writer.is_alive()
    finally:
        chans.close()
    assert (got.kind, got.seq, got.layer, got.ratio, got.curve) == ("ratio_fixed", 0, 1, 0.25, msg.curve)
    assert np.array_equal(got.tensor, msg.tensor)


def test_trickled_frame_fails_within_one_receive_timeout():
    # one deadline per frame: a byte every 50 ms keeps each read inside 0.2 s, not the frame
    chans = SocketTransport([0, 1])
    frame = encode_message(CalMessage("layer_output", 0, 1, seq=0, layer=0, stream="fp", count=1, tensor=np.ones(8)))
    stop = threading.Event()

    def trickle():
        for i in range(len(frame)):
            if stop.wait(0.05):
                return
            chans._ends[(0, 1)].sendall(frame[i : i + 1])

    writer = threading.Thread(target=trickle, daemon=True)
    writer.start()
    t0 = time.monotonic()
    try:
        with pytest.raises(ProtocolError, match="timeout"):
            chans.recv(1, 0, timeout=0.2)
        elapsed = time.monotonic() - t0
    finally:
        stop.set()
        writer.join(timeout=1.0)
        chans.close()
    assert elapsed < 0.5
    assert not writer.is_alive()


def test_peer_closing_mid_payload_is_a_protocol_error():
    chans = SocketTransport([0, 1])
    frame = encode_message(CalMessage("layer_output", 0, 1, seq=0, layer=0, stream="fp", count=1, tensor=np.ones(64)))
    chans._ends[(0, 1)].sendall(frame[: len(frame) // 2])
    chans._ends[(0, 1)].close()
    try:
        with pytest.raises(ProtocolError, match="connection closed"):
            chans.recv(1, 0, timeout=2.0)
    finally:
        chans.close()


def test_forged_length_prefix_costs_no_memory_or_time():
    # a 4 GiB length and then nothing: the receive buffer must stay untouched
    chans = SocketTransport([0, 1])
    chans._ends[(0, 1)].sendall(struct.pack("<I", 0xFFFFFFFF))
    chans._ends[(0, 1)].close()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    try:
        with pytest.raises(ProtocolError):
            chans.recv(1, 0, timeout=2.0)
    finally:
        chans.close()
    assert time.perf_counter() - t0 < 0.5
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_kib < 64 * 1024


def test_unallocatable_frame_is_a_protocol_error(monkeypatch):
    chans = SocketTransport([0, 1])
    chans._ends[(0, 1)].sendall(struct.pack("<I", 0xFFFFFFFF))

    empty = np.empty

    def no_memory(n, *args, **kwargs):  # a host that cannot map 4 GiB
        if n > 1 << 20:
            raise MemoryError
        return empty(n, *args, **kwargs)

    monkeypatch.setattr(distcal.np, "empty", no_memory)
    try:
        with pytest.raises(ProtocolError, match="cannot allocate a 4294967295-byte frame"):
            chans.recv(1, 0, timeout=2.0)
    finally:
        chans.close()


def test_decode_views_a_writable_frame_and_copies_read_only_bytes():
    frame = encode_message(replace(_EVERY_KIND[0], seq=0))[4:]
    private = np.frombuffer(bytearray(frame), np.uint8)
    viewed = decode_message(private).tensor
    copied = decode_message(frame).tensor
    assert np.shares_memory(viewed, private)
    assert copied.flags.writeable and not np.shares_memory(copied, np.frombuffer(frame, np.uint8))
    assert np.array_equal(viewed, copied)


def _stat(layer):
    return CalMessage("stat_request", 0, 1, layer=layer, count=1, tensor=np.ones(2))


def _output(stream, layer):
    ratio = 0.0 if stream == "q" else None  # a full-precision output carries none
    return CalMessage("layer_output", 0, 1, layer=layer, stream=stream, ratio=ratio, tensor=np.ones(2), count=1)


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
    chans.timeout = 1.0
    # up to four frames share channel 0->1, which holds two: send while the worker reads
    sender = threading.Thread(target=lambda: [chans.send(m) for m in messages + [CalMessage("done", 0, 1)]])
    sender.start()
    ctx = _WorkerCtx(1, chans, MemoryAccount())
    with pytest.raises(ProtocolError, match=error):
        _cal_worker_loop(ctx)
    sender.join()


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


@pytest.mark.parametrize("strategy", ["none", "passact1", "passact2"])
@pytest.mark.parametrize("workers", [2, 3])
def test_bounded_in_process_channels_never_deadlock(monkeypatch, workers, strategy):
    """Every channel holds at most CHANNEL_FRAMES frames, so at most that many largest tensors are in flight."""
    seen = []  # (frames queued, tensor bytes queued) after every append

    class RecordingChannel(collections.deque):
        def append(self, item):  # called under the channel's lock
            super().append(item)
            seen.append((len(self), sum(m.tensor.nbytes for m in self if m.tensor is not None)))

    make_transport = distcal.make_transport

    def recording_transport(name, worker_ids):
        chans = make_transport(name, worker_ids)
        chans._queues = {key: RecordingChannel() for key in chans._queues}
        return chans

    monkeypatch.setattr(distcal, "make_transport", recording_transport)
    stack, acts = _fixture(seed=8, b=6, n=8, c=16, depth=2)
    opts = dict(strategy=strategy, stat_mode="topk", cfg_w=CFG_W, cfg_a=CFG_A)
    start = time.monotonic()
    dist, _ = run_distributed_calibration(stack, acts, workers=workers, transport="in_process", timeout=10.0, **opts)
    assert time.monotonic() - start < 5.0
    assert result_to_text(dist) == result_to_text(calibrate(stack, acts, **opts))
    largest_frame = acts.nbytes  # every tensor is one (B, N, 16) layer input or output, or smaller
    assert len(seen) > 2 * len(RatioGrid().points())
    assert max(frames for frames, _ in seen) <= distcal.CHANNEL_FRAMES
    assert max(nbytes for _, nbytes in seen) <= distcal.CHANNEL_FRAMES * largest_frame


_FAILURES = (
    (2, 1, "layer_loss"),  # one worker holds both roles
    (3, 2, "layer_loss"),  # the loss worker stops reading channel 0->2
    (3, 1, "select_ratio"),  # the scale worker stops reading channel 2->1
)


@pytest.mark.parametrize("workers, failing, fails_in, transport", [
    # an in-process case's id is its failure alone, e.g. 2-1-layer_loss
    pytest.param(*case, transport, id="-".join(map(str, case)) + ("" if transport == "in_process" else f"-{transport}"))
    for transport in ("in_process", "sockets") for case in _FAILURES
])
def test_failing_worker_stops_the_run_at_once_with_its_error(monkeypatch, workers, failing, fails_in, transport):
    def fail(*args):
        raise NumericError("injected failure")

    monkeypatch.setattr(distcal, fails_in, fail)
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations  # 1 MiB outputs fill a channel
    threads = threading.active_count()
    start = time.monotonic()
    named = "layer 1: " if fails_in == "select_ratio" else ""  # the scale worker names its layer's index
    with pytest.raises(ProtocolError, match=f"^worker failed: {named}injected failure$") as info:
        run_distributed_calibration(
            stack, acts, workers=workers, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=5.0,
        )
    assert time.monotonic() - start < 3.0
    assert isinstance(info.value.__cause__, NumericError)
    assert threading.active_count() == threads


def test_abort_wakes_a_coordinator_already_blocked_on_a_full_channel(monkeypatch):
    """The loss worker fails only once the coordinator waits on the full channel 0->2."""
    blocked = threading.Event()
    make_transport = distcal.make_transport

    def watching_transport(name, worker_ids):
        chans = make_transport(name, worker_ids)
        wait = chans._wait

        def watched_wait(cond, ready, timeout, failure):
            if cond is chans._conds[(0, 2)] and not ready():
                blocked.set()
            wait(cond, ready, timeout, failure)

        chans._wait = watched_wait
        return chans

    def fail(*args):
        assert blocked.wait(10.0)
        time.sleep(0.1)  # the coordinator is inside its wait by now
        raise NumericError("injected failure")

    monkeypatch.setattr(distcal, "make_transport", watching_transport)
    monkeypatch.setattr(distcal, "layer_loss", fail)
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="worker failed: injected failure") as info:
        run_distributed_calibration(
            stack, acts, workers=3, transport="in_process", strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=10.0,
        )
    assert time.monotonic() - start < 3.0
    assert isinstance(info.value.__cause__, NumericError)
    assert threading.active_count() == threads


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


def _crash_silently(monkeypatch, worker, after=3):
    """Worker `worker` receives `after` messages from the coordinator, then returns without an error."""
    worker_loop = distcal._cal_worker_loop

    def crashing_loop(ctx):
        if ctx.me != worker:
            return worker_loop(ctx)
        for _ in range(after):
            ctx.recv(distcal.COORDINATOR)

    monkeypatch.setattr(distcal, "_cal_worker_loop", crashing_loop)


def test_worker_crash_aborts_without_result(monkeypatch):
    stack, acts = _fixture(seed=6, depth=1)
    _crash_silently(monkeypatch, worker=1)
    timeout = 0.5
    t0 = time.time()
    with pytest.raises(ProtocolError):
        run_distributed_calibration(
            stack, acts, workers=2, transport="in_process", strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=timeout,
        )
    assert time.time() - t0 < 1.5 * timeout


def test_socket_loss_worker_crash_aborts_within_bound(monkeypatch):
    # each 1 MiB y_q frame overflows the socket buffer of the crashed loss
    # worker, so without a send deadline the coordinator blocks forever
    _crash_silently(monkeypatch, worker=2)
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations
    outcome = []

    def run():
        try:
            run_distributed_calibration(
                stack, acts, workers=3, transport="sockets", strategy="passact2",
                stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=1.0,
            )
            outcome.append(None)
        except Exception as exc:  # noqa: BLE001 - inspected below
            outcome.append(exc)

    t0 = time.time()
    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive(), "distributed run still blocked after 10 s"
    # the blocked send costs one timeout; the failure spreading must not add another
    assert time.time() - t0 < 1.5
    assert isinstance(outcome[0], ProtocolError)


_CRASHES = ((2, 1, 3), (3, 1, 1), (3, 2, 3))  # (workers, the worker that exits, after how many messages)


@pytest.mark.parametrize("workers, worker, after, transport", [
    pytest.param(*case, transport, id="-".join(map(str, case)) + f"-{transport}")
    for transport in ("in_process", "sockets") for case in _CRASHES
])
def test_a_silent_exit_ends_the_run_at_once(monkeypatch, workers, worker, after, transport):
    """An exit closes the worker's channel ends, so no peer waits out its timeout."""
    _crash_silently(monkeypatch, worker=worker, after=after)
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations  # 1 MiB outputs fill a channel
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ProtocolError):
        run_distributed_calibration(
            stack, acts, workers=workers, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=5.0,
        )
    assert time.monotonic() - start < 3.0
    assert threading.active_count() == threads


@pytest.mark.parametrize("transport", ["in_process", "sockets"])
@pytest.mark.parametrize("workers", [2, 3])
def test_a_coordinator_failing_first_ends_the_run_with_its_own_error(monkeypatch, workers, transport):
    """It fails at the 6th grid point, after 5 went out; with 3 workers the scale worker waits on the loss worker."""
    calls = itertools.count(1)
    quant = distcal.apply_linear_quant

    def failing_quant(*args):
        if next(calls) == 6:
            raise NumericError("coordinator failure")
        return quant(*args)

    monkeypatch.setattr(distcal, "apply_linear_quant", failing_quant)
    stack = build_stack(6, 1, 64)
    acts = build_calibset(6, 32, 64, 64, visual_fraction=0.5).activations
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(NumericError, match="coordinator failure"):
        run_distributed_calibration(
            stack, acts, workers=workers, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=5.0,
        )
    assert time.monotonic() - start < 3.0
    assert threading.active_count() == threads


def _off_grid(msg):
    return replace(msg, ratio=msg.ratio + 0.01)


def _another_minimum(msg):
    return replace(msg, curve=tuple((r, float(r == msg.ratio)) for r, _ in msg.curve))


def _doubled_scale(msg):
    return replace(msg, tensor=2.0 * msg.tensor)


_CURVE = "does not hold this grid's curve"
_RELABELS = (  # (kind, stream, which frame, its receiver, change, the coordinator's error)
    ("loss_report", None, 5, 1, _off_grid, _CURVE),
    ("layer_output", "q", 5, 2, _off_grid, _CURVE),
    ("ratio_fixed", None, 1, 0, _another_minimum, _CURVE),
    ("ratio_fixed", None, 1, 0, _doubled_scale, "does not match the coordinator's statistic"),
)


@pytest.mark.parametrize("kind, stream, nth, receiver, change, error, transport", [
    pytest.param(*case, transport, id=f"{case[0]}-{case[1]}-{case[4].__name__}-{transport}")
    for transport in ("in_process", "sockets") for case in _RELABELS
])
def test_a_mislabelled_frame_never_gives_a_result(monkeypatch, kind, stream, nth, receiver, change, error, transport):
    """A sender's bug that relabels one frame is refused by the coordinator, naming the layer."""
    monkeypatch.setattr(distcal, "make_transport",
                        faulty_transport(distcal.make_transport, change, kind, stream, nth, receiver))
    stack, acts = _fixture(seed=9)
    first = next(lin for _, lin in stack.linears()).name  # every relabelled frame is of the first linear
    with pytest.raises(ProtocolError, match=f"layer '{first}': .*{error}"):
        run_distributed_calibration(
            stack, acts, workers=3, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=5.0,
        )


def _first_loss(loss):
    return lambda msg: replace(msg, curve=((msg.curve[0][0], loss), *msg.curve[1:]))


_BAD_LOSSES = {  # id -> (kind, which frame, its receiver, change, whether the coordinator names the layer)
    "ratio_fixed-nan": ("ratio_fixed", 1, 0, _first_loss(math.nan), True),
    "ratio_fixed-negative": ("ratio_fixed", 1, 0, _first_loss(-1.0), True),
    "loss_report-nan": ("loss_report", 1, 1, lambda msg: replace(msg, loss=math.nan), False),
}


@pytest.mark.parametrize("kind, nth, receiver, change, named, transport", [
    pytest.param(*case, transport, id=f"{name}-{transport}")
    for transport in ("in_process", "sockets") for name, case in _BAD_LOSSES.items()
])
def test_a_negative_or_nan_loss_ends_the_run_in_one_protocol_error_line(
    monkeypatch, kind, nth, receiver, change, named, transport,
):
    monkeypatch.setattr(distcal, "make_transport",
                        faulty_transport(distcal.make_transport, change, kind, None, nth, receiver))
    stack, acts = _fixture(seed=9)
    index, first = stack.linears()[0]
    with pytest.raises(ProtocolError, match="a curve loss is negative or NaN") as info:
        run_distributed_calibration(
            stack, acts, workers=3, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=5.0,
        )
    assert "\n" not in str(info.value)
    # the scale worker knows the layer by the index its frames carry, the coordinator by its name
    assert str(info.value).startswith(f"layer '{first.name}': " if named else f"worker failed: layer {index}: "), (
        info.value
    )
    assert named or isinstance(info.value.__cause__, NumericError)  # the scale worker's select_ratio


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
    assert "\norigin sqrt_baseline\n" in result_to_text(dist)


def test_worker_validation(monkeypatch):
    stack, acts = _fixture(seed=7, depth=1)
    # rejected before any thread or socket exists
    monkeypatch.setattr(distcal, "make_transport", lambda *args: pytest.fail("transport was built"))
    before = threading.active_count()
    for workers in (1, 0, -2, 4, 10, 2.0, 3.0, True):
        with pytest.raises(ConfigError, match="2 or 3 workers"):
            run_distributed_calibration(stack, acts, workers=workers, transport="sockets", cfg_w=CFG_W, cfg_a=CFG_A)
    assert threading.active_count() <= before


_GAPS = (  # (kind, stream, which frame, its receiver, the gap its channel's next frame shows)
    ("layer_output", "q", 1, 2, r"channel \(0, 2\): expected seq 1, got 2"),
    ("layer_output", "q", 5, 2, r"channel \(0, 2\): expected seq 5, got 6"),
    ("loss_report", None, 3, 1, r"channel \(2, 1\): expected seq 2, got 3"),
)


@pytest.mark.parametrize("kind, stream, nth, receiver, gap, transport", [
    pytest.param(*case, transport, id=f"{case[0]}-{case[1]}-{case[2]}-{transport}")
    for transport in ("in_process", "sockets") for case in _GAPS
])
def test_a_lost_frame_followed_by_another_ends_the_run_at_once(monkeypatch, kind, stream, nth, receiver, gap, transport):
    monkeypatch.setattr(distcal, "make_transport",
                        faulty_transport(distcal.make_transport, "drop", kind, stream, nth, receiver))
    stack, acts = _fixture(seed=9, b=8, n=16)
    threads = threading.active_count()
    start = time.monotonic()
    with pytest.raises(ProtocolError, match=gap) as info:
        run_distributed_calibration(
            stack, acts, workers=3, transport=transport, strategy="passact2",
            stat_mode="max", cfg_w=CFG_W, cfg_a=CFG_A, timeout=0.5,
        )
    assert time.monotonic() - start < 0.5
    assert "\n" not in str(info.value)
    assert threading.active_count() == threads


_MATRIX_GRID = RatioGrid(0.0, 1.0, 0.25)
_MATRIX_TIMEOUT = 0.25
_LAST = 2 * len(_MATRIX_GRID.points())  # the q outputs or loss reports of a D2 run
# The first and last frame of each kind in a D2 run, per worker count: (kind, stream,
# receiver, nth, followed, read_last). `followed`: a frame of the same layer's dispatch
# comes after it on its channel. `read_last`: its receiver reads its channel no more.
_MATRIX_FRAMES = {
    3: (
        ("stat_request", None, 1, 1, False, False), ("stat_request", None, 1, 2, False, False),
        ("layer_output", "fp", 2, 1, True, False), ("layer_output", "fp", 2, 2, True, False),
        ("layer_output", "q", 2, 1, True, False), ("layer_output", "q", 2, _LAST, False, False),
        ("loss_report", None, 1, 1, True, False), ("loss_report", None, 1, _LAST, False, True),
        ("ratio_fixed", None, 0, 1, False, False), ("ratio_fixed", None, 0, 2, False, True),
        ("done", None, 1, 1, False, True), ("done", None, 2, 1, False, True),
    ),
    2: (
        ("stat_request", None, 1, 1, True, False), ("stat_request", None, 1, 2, True, False),
        ("layer_output", "fp", 1, 1, True, False), ("layer_output", "fp", 1, 2, True, False),
        ("layer_output", "q", 1, 1, True, False), ("layer_output", "q", 1, _LAST, False, False),
        ("ratio_fixed", None, 0, 1, False, False), ("ratio_fixed", None, 0, 2, False, True),
        ("done", None, 1, 1, False, True),
    ),
}
_RELABEL = {"ratio": lambda msg: replace(msg, ratio=(msg.ratio or 0.0) + 0.01),
            "layer": lambda msg: replace(msg, layer=msg.layer + 1)}


def _matrix_cases():
    """Every fault a frame can take. A swap needs a next frame that does not wait on its own
    frame (without one it is a drop); a relabelled field must be one the frame carries."""
    for workers, frames in _MATRIX_FRAMES.items():
        for kind, stream, receiver, nth, followed, read_last in frames:
            for fault in ("drop", "duplicate", "swap", "ratio", "layer"):
                if (fault == "swap" and not followed or fault == "layer" and kind == "done"
                        or fault == "ratio" and kind in ("stat_request", "done")):
                    continue
                for transport in TRANSPORTS:
                    yield pytest.param(workers, transport, fault, kind, stream, receiver, nth, followed, read_last,
                                       id=f"{workers}w-{fault}-{kind}-{stream}-{nth}-to{receiver}-{transport}")


@pytest.mark.parametrize("workers, transport, fault, kind, stream, receiver, nth, followed, read_last",
                         _matrix_cases())
def test_a_faulted_frame_its_receiver_reads_never_gives_a_result(
    monkeypatch, workers, transport, fault, kind, stream, receiver, nth, followed, read_last,
):
    """A lost, repeated, reordered or relabelled frame ends the run in one TlqError line.

    Only a fault its receiver never reads gives calibrate's result: a copy of
    the last frame read on its channel.
    """
    stack, acts = _fixture(seed=9, b=8, n=16)
    opts = dict(strategy="passact2", stat_mode="max", grid=_MATRIX_GRID, cfg_w=CFG_W, cfg_a=CFG_A)
    unread = fault == "duplicate" and read_last
    want = result_to_text(calibrate(stack, acts, **opts)) if unread else None
    # a lost frame that nothing follows costs one timeout, but for `done`: the coordinator's exit ends that wait
    pays_timeout = fault == "drop" and not followed and kind != "done"
    monkeypatch.setattr(distcal, "make_transport", faulty_transport(
        distcal.make_transport, _RELABEL.get(fault, fault), kind, stream, nth, receiver))
    threads = threading.active_count()
    start = time.monotonic()
    try:
        result, _ = run_distributed_calibration(stack, acts, workers=workers, transport=transport,
                                                timeout=_MATRIX_TIMEOUT, **opts)
        assert unread and result_to_text(result) == want
    except TlqError as exc:
        assert not unread and "\n" not in str(exc) and ("timeout" in str(exc)) == pays_timeout, exc
        gap = re.search(r"expected seq (\d+), got (\d+)", str(exc))
        if fault == "duplicate" or fault in ("drop", "swap") and followed:  # the receiver's seq check
            assert gap and int(gap[2]) - int(gap[1]) == (-1 if fault == "duplicate" else 1), exc
    assert time.monotonic() - start < (1.5 if pays_timeout else 1.0) * _MATRIX_TIMEOUT
    assert threading.active_count() == threads


@pytest.mark.parametrize("timeout", [-1.0, 0.0, math.nan, math.inf, 1e12])
def test_bad_timeout_fails_before_any_worker_starts(timeout):
    stack, acts = _fixture(seed=7, depth=1)
    before = threading.active_count()
    with pytest.raises(ConfigError, match="timeout"):
        run_distributed_calibration(stack, acts, timeout=timeout, cfg_w=CFG_W, cfg_a=CFG_A)
    assert threading.active_count() <= before

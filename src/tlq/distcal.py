"""Memory-decoupled distributed calibration.

The layer-wise search is split across 2 or 3 workers with fixed roles.
Worker 0 infers and coordinates: it owns the stack and the activation
streams and produces every layer output. Worker 1, the scale worker,
receives each layer's activation statistic, recomputes the winning scale
and fixes the ratio. The last worker, the loss worker, holds each layer's
full-precision reference output and scores each grid point's quantized
output as it arrives; with 2 workers, worker 1 holds both roles.

Memory is tracked by an explicit byte ledger rather than the host
allocator: the quantities under test are tensor footprints per worker, and
a ledger makes the per-role peak decomposition exactly checkable at desk
scale. Each worker has one `MemoryAccount`, and that account is the
`WalkObserver` its code charges. Tensors are ledgered where the protocol
holds them; transfers free the sender account when a send completes and
charge the receiver when the message is consumed. Every worker handles its
messages in a fixed order, so the event logs are deterministic.

The coordinator runs the single-context calibration loop
(`calibration._calibration_loop`) with its account as the observer and a
remote grid search: each layer's search dispatches the statistic and
outputs to the workers and waits for `ratio_fixed`. Every receive goes
through `_WorkerCtx.recv`, which checks that the message is the step the
protocol expects. The numeric kernels are the single-context ones on
bit-identical tensors (float64 survives the wire exactly), so the
distributed result equals the single-context result bit for bit.
"""

from __future__ import annotations

import queue
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .calibration import (
    CalibrationResult,
    LinearTask,
    RatioGrid,
    WalkObserver,
    _batch_fp,
    _calibration_loop,
    layer_loss,
    select_ratio,
)
from .errors import ConfigError, LedgerError, ProtocolError
from .layers import LayerStack
from .model import ProxyLossSpec, _Reader, apply_linear_quant
from .quantizer import QuantConfig
from .smoothing import power_scale

TRANSPORTS = ("in_process", "sockets")
COORDINATOR = 0  # infers and coordinates
SCALE_WORKER = 1  # fixes scales; the last worker scores losses


# --- memory accounts -----------------------------------------------------------


@dataclass(frozen=True)
class LedgerEvent:
    tick: int  # per-worker logical timestamp
    delta: int  # signed bytes
    tag: str


class MemoryAccount(WalkObserver):
    """One worker's byte account with peak tracking.

    Thread safe; event ticks count this account's own events, so event logs
    are deterministic regardless of thread interleaving.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0
        self.events: list[LedgerEvent] = []

    def alloc(self, nbytes: int, tag: str) -> None:
        if nbytes <= 0:
            raise LedgerError(f"allocation must be > 0 bytes, got {nbytes} ({tag})")
        with self._lock:
            self.current += int(nbytes)
            self.peak = max(self.peak, self.current)
            self.events.append(LedgerEvent(len(self.events) + 1, int(nbytes), tag))

    def free(self, nbytes: int, tag: str) -> None:
        if nbytes <= 0:
            raise LedgerError(f"free must be > 0 bytes, got {nbytes} ({tag})")
        with self._lock:
            if nbytes > self.current:
                raise LedgerError(f"over-free of {nbytes} bytes ({tag}): worker holds {self.current}")
            self.current -= int(nbytes)
            self.events.append(LedgerEvent(len(self.events) + 1, -int(nbytes), tag))


def baseline_peak(model_dims: tuple[int, int], batch_dims: tuple[int, int]) -> int:
    """Single-context float64 peak for one layer's calibration step.

    input + FP output + quantized output + weight matrix + a workspace the
    size of the input.
    """
    c_in, c_out = model_dims
    b, n = batch_dims
    if min(c_in, c_out, b, n) <= 0:
        raise ConfigError("baseline_peak dims must be positive")
    return 8 * (2 * b * n * c_in + 2 * b * n * c_out + c_in * c_out)


# --- messages and wire format ---------------------------------------------------

MSG_KINDS = ("layer_output", "stat_request", "loss_report", "ratio_fixed", "done", "abort")

_KIND_CODES = {k: i + 1 for i, k in enumerate(MSG_KINDS)}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


@dataclass(frozen=True)
class CalMessage:
    kind: str
    sender: int
    receiver: int
    seq: int = -1  # assigned by the transport when sent
    layer: int | None = None
    stream: str | None = None  # "fp" | "q" for layer_output
    ratio: float | None = None
    tensor: np.ndarray | None = None
    loss: float | None = None
    curve: tuple | None = None  # ratio_fixed carries the full loss curve
    count: int | None = None  # grid length, so receivers know how much to expect
    reason: str | None = None  # abort


def _decode_tensor(c: _Reader) -> np.ndarray:
    (ndim,) = c.unpack("<B")
    shape = c.unpack(f"<{ndim}I")
    (crc,) = c.unpack("<I")
    tensor = c.f64s(*shape)
    if zlib.crc32(tensor) != crc:
        raise ProtocolError("tensor checksum mismatch")
    return tensor


def _frame_parts(msg: CalMessage) -> list:
    """One frame as a short list of parts whose concatenation is the frame.

    The length prefix and the fields are packed into the first part; a
    tensor's payload follows as a byte view of its own (C-order, float64)
    buffer, not a copy, and then any trailing fields.
    """
    head = struct.pack("<BHHQ", _KIND_CODES[msg.kind], msg.sender, msg.receiver, msg.seq)
    tensor, tail = None, b""
    if msg.kind == "layer_output":
        stream_code = 0 if msg.stream == "fp" else 1
        ratio = float("nan") if msg.ratio is None else msg.ratio
        head += struct.pack("<IBId", msg.layer, stream_code, msg.count or 0, ratio)
        tensor = msg.tensor
    elif msg.kind == "stat_request":
        head += struct.pack("<II", msg.layer, msg.count)
        tensor = msg.tensor
    elif msg.kind == "loss_report":
        head += struct.pack("<Idd", msg.layer, msg.ratio, msg.loss)
    elif msg.kind == "ratio_fixed":
        head += struct.pack("<Id", msg.layer, msg.ratio)
        tensor = msg.tensor
        tail = struct.pack("<I", len(msg.curve)) + b"".join(struct.pack("<dd", r, loss) for r, loss in msg.curve)
    elif msg.kind == "done":
        pass
    elif msg.kind == "abort":
        raw = (msg.reason or "").encode("utf-8")
        head += struct.pack("<H", len(raw)) + raw
    else:
        raise ProtocolError(f"cannot encode message kind {msg.kind!r}")
    parts = [head]
    if tensor is not None:
        payload = np.ascontiguousarray(tensor, dtype="<f8").reshape(-1).view(np.uint8)
        parts[0] += struct.pack(f"<B{tensor.ndim}II", tensor.ndim, *tensor.shape, zlib.crc32(payload))
        parts.append(payload)
    if tail:
        parts.append(tail)
    parts[0] = struct.pack("<I", sum(len(p) for p in parts)) + parts[0]
    return parts


def encode_message(msg: CalMessage) -> bytes:
    return b"".join(_frame_parts(msg))


def decode_message(blob) -> CalMessage:
    """Decode a frame without its length prefix.

    The tensor views a writable `blob` (a received frame's private buffer)
    and copies out of a read-only one.
    """
    c = _Reader(blob, error=ProtocolError)
    code, sender, receiver, seq = c.unpack("<BHHQ")
    if code not in _KIND_NAMES:
        raise ProtocolError(f"unknown message kind code {code}")
    kind = _KIND_NAMES[code]
    msg = CalMessage(kind, sender, receiver, seq)
    if kind == "layer_output":
        layer, stream_code, count, ratio = c.unpack("<IBId")
        if stream_code > 1:
            raise ProtocolError(f"unknown stream code {stream_code}")
        tensor = _decode_tensor(c)
        msg = replace(
            msg,
            layer=layer,
            stream="fp" if stream_code == 0 else "q",
            count=count,
            ratio=None if np.isnan(ratio) else ratio,
            tensor=tensor,
        )
    elif kind == "stat_request":
        layer, count = c.unpack("<II")
        msg = replace(msg, layer=layer, count=count, tensor=_decode_tensor(c))
    elif kind == "loss_report":
        layer, ratio, loss = c.unpack("<Idd")
        msg = replace(msg, layer=layer, ratio=ratio, loss=loss)
    elif kind == "ratio_fixed":
        layer, ratio = c.unpack("<Id")
        tensor = _decode_tensor(c)
        (n,) = c.unpack("<I")
        curve = tuple(c.unpack("<dd") for _ in range(n))
        msg = replace(msg, layer=layer, ratio=ratio, tensor=tensor, curve=curve)
    elif kind == "abort":
        (n,) = c.unpack("<H")
        msg = replace(msg, reason=c.text(n))
    c.done()
    return msg


# --- transports -----------------------------------------------------------------


class _BaseTransport:
    """Point-to-point ordered channels with per-channel sequence numbers.

    `send_timeout` bounds how long a send may block on a full channel
    (None: no bound); a send that runs out of it raises ProtocolError.
    """

    def __init__(self, worker_ids: Sequence[int]):
        self.worker_ids = tuple(worker_ids)
        self.send_timeout: float | None = None
        self.aborted_by: int | None = None  # the first worker to call abort_peers
        self.abort_reason: str | None = None
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}

    def _next_seq(self, src: int, dst: int) -> int:
        seq = self._send_seq.get((src, dst), -1) + 1
        self._send_seq[(src, dst)] = seq
        return seq

    def send(self, msg: CalMessage) -> None:
        self._send(msg, self.send_timeout)

    def abort_peers(self, sender: int, reason: str) -> None:
        """Best-effort abort to every other worker, for failure paths.

        It never waits on a full channel: the peer behind it has stopped
        reading, and waiting would add a second full timeout to the run.
        The first abort is also recorded on the transport: it names the
        worker whose failure is the run's cause, and in-process waits that
        its message cannot reach stop on it.
        """
        if self.aborted_by is None:
            self.aborted_by, self.abort_reason = sender, f"worker {sender} aborted: {reason}"
        for peer in self.worker_ids:
            if peer != sender:
                try:
                    self._send(CalMessage("abort", sender, peer, reason=reason), 0.0)
                except Exception:  # noqa: BLE001 - the run is failing already
                    pass

    def recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        """Next message on channel sender->receiver, checked for route, order and abort."""
        msg = self._recv(receiver, sender, timeout)
        key = (sender, receiver)
        if (msg.sender, msg.receiver) != key:
            raise ProtocolError(
                f"misrouted frame: {msg.sender}->{msg.receiver} on channel {sender}->{receiver}"
            )
        last = self._recv_seq.get(key, -1)
        if msg.seq <= last:
            raise ProtocolError(
                f"out-of-order message on channel {key}: seq {msg.seq} after {last}"
            )
        self._recv_seq[key] = msg.seq
        if msg.kind == "abort":
            raise ProtocolError(f"worker {msg.sender} aborted: {msg.reason}")
        return msg

    def _send(self, msg: CalMessage, timeout: float | None) -> None:
        raise NotImplementedError

    def _recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        raise NotImplementedError

    def close(self) -> None:
        pass


# frames an in-process channel holds before its sender waits
CHANNEL_FRAMES = 2
# longest wait on an in-process channel between checks for an aborted run
_POLL_S = 0.05


class InProcessTransport(_BaseTransport):
    """Queue-backed channels; messages cross as objects, without serialization.

    Each channel holds at most `CHANNEL_FRAMES` messages, so at most that
    many times the largest tensor is in flight on it, unledgered. A send to
    a full channel and a receive from an empty one end as soon as any
    worker aborts the run, with that worker's reason: a worker that failed
    stops reading, and its abort message may not fit in a full channel.
    """

    def __init__(self, worker_ids: Sequence[int]):
        super().__init__(worker_ids)
        self._queues = {
            (a, b): queue.Queue(maxsize=CHANNEL_FRAMES) for a in worker_ids for b in worker_ids if a != b
        }

    def _wait(self, op, timeout: float | None, failure: str):
        """op(timeout=...) in slices of at most _POLL_S until it succeeds, the run aborts or `timeout` passes."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            left = _POLL_S if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                return op(timeout=min(_POLL_S, left))
            except (queue.Full, queue.Empty):
                if self.abort_reason is not None:
                    raise ProtocolError(self.abort_reason) from None
                if deadline is not None and time.monotonic() >= deadline:
                    raise ProtocolError(failure) from None

    def _send(self, msg: CalMessage, timeout: float | None) -> None:
        seq = self._next_seq(msg.sender, msg.receiver)
        self._wait(  # a timeout of 0 fails at once: abort_peers never waits
            partial(self._queues[(msg.sender, msg.receiver)].put, replace(msg, seq=seq)), timeout,
            f"send to worker {msg.receiver} (sender {msg.sender}) failed: channel full for {timeout} s",
        )

    def _recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        return self._wait(
            self._queues[(sender, receiver)].get, timeout, f"timeout waiting for worker {sender} (receiver {receiver})"
        )


class SocketTransport(_BaseTransport):
    """Local stream sockets carrying length-prefixed frames.

    Every worker pair gets one full-duplex socketpair, so tensors really
    cross a byte stream with checksums, mirroring a multi-process setup.
    """

    def __init__(self, worker_ids: Sequence[int]):
        super().__init__(worker_ids)
        self._ends: dict[tuple[int, int], socket.socket] = {}
        for i, a in enumerate(worker_ids):
            for b in worker_ids[i + 1 :]:
                end_a, end_b = socket.socketpair()
                self._ends[(a, b)] = end_a  # a's endpoint for peer b
                self._ends[(b, a)] = end_b

    def _send(self, msg: CalMessage, timeout: float | None) -> None:
        """Write the frame's parts in order under one deadline for the whole frame."""
        seq = self._next_seq(msg.sender, msg.receiver)
        parts = _frame_parts(replace(msg, seq=seq))
        sock = self._ends[(msg.sender, msg.receiver)]
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for part in parts:
                sock.settimeout(None if deadline is None else max(0.0, deadline - time.monotonic()))
                sock.sendall(part)
        except OSError as exc:  # TimeoutError included: the receiver stopped reading
            raise ProtocolError(f"send to worker {msg.receiver} (sender {msg.sender}) failed: {exc}") from None

    def _read_exact(self, sock: socket.socket, n: int, who: str, deadline: float) -> np.ndarray:
        """n bytes read straight into one new buffer before `deadline` (monotonic).

        `np.empty` leaves the pages untouched, so a forged length costs
        nothing until bytes actually arrive.
        """
        try:
            buf = np.empty(n, np.uint8)
        except MemoryError:
            raise ProtocolError(f"cannot allocate a {n}-byte frame from {who}") from None
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                sock.settimeout(max(0.0, deadline - time.monotonic()))
                k = sock.recv_into(view[got:])
            except (TimeoutError, BlockingIOError):  # BlockingIOError: past the deadline, nothing had arrived
                raise ProtocolError(f"timeout waiting for {who}") from None
            if not k:
                raise ProtocolError(f"connection closed while waiting for {who}")
            got += k
        return buf

    def _recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        sock = self._ends[(receiver, sender)]
        deadline = time.monotonic() + timeout
        who = f"worker {sender} (receiver {receiver})"
        (length,) = struct.unpack("<I", self._read_exact(sock, 4, who, deadline))
        return decode_message(self._read_exact(sock, length, who, deadline))

    def close(self) -> None:
        for sock in self._ends.values():
            try:
                sock.close()
            except OSError:
                pass


def make_transport(name: str, worker_ids: Sequence[int]) -> _BaseTransport:
    if name == "in_process":
        return InProcessTransport(worker_ids)
    if name == "sockets":
        return SocketTransport(worker_ids)
    raise ConfigError(f"transport must be one of {TRANSPORTS}, got {name!r}")


# --- memory report ---------------------------------------------------------------


@dataclass(frozen=True)
class WorkerMemory:
    worker: int
    peak_bytes: int
    current_bytes: int
    events: int


@dataclass(frozen=True)
class MemoryReport:
    baseline_bytes: int
    workers: tuple[WorkerMemory, ...]

    def max_peak(self) -> int:
        return max(w.peak_bytes for w in self.workers)

    def to_text(self) -> str:
        lines = ["tlq-memory-report v1", f"baseline_bytes {self.baseline_bytes}", f"workers {len(self.workers)}"]
        for w in self.workers:
            roles = "infer" if w.worker == COORDINATOR else "loss,scale"
            lines.append(
                f"worker {w.worker} roles {roles} peak {w.peak_bytes} "
                f"current {w.current_bytes} events {w.events}"
            )
        lines.append("end")
        return "\n".join(lines) + "\n"


# --- worker logic -----------------------------------------------------------------


class _InjectedCrash(Exception):
    """Raised by the fault-injection hook; the worker dies without an abort."""


@dataclass
class _WorkerCtx:
    me: int
    transport: _BaseTransport
    account: MemoryAccount
    timeout: float
    crash_after: int | None = None  # fault injection: die after N received messages
    received: int = 0

    def recv(self, sender: int, kind: str | None = None, layer: int | None = None, stream: str | None = None):
        """Next message from `sender`, counted for fault injection.

        With a `kind`, the message must be exactly that step: the same kind,
        layer and stream.
        """
        msg = self.transport.recv(self.me, sender, self.timeout)
        self.received += 1
        if self.crash_after is not None and self.received >= self.crash_after:
            raise _InjectedCrash()
        if kind is not None and (msg.kind, msg.layer, msg.stream) != (kind, layer, stream):
            raise ProtocolError(
                f"worker {self.me} expected {kind} (layer {layer}, stream {stream}), "
                f"got {msg.kind} (layer {msg.layer}, stream {msg.stream})"
            )
        return msg


def _scored_points(ctx: _WorkerCtx, fp: CalMessage):
    """Yield (ratio, loss) for each quantized output of fp's layer as it arrives.

    The reference (fp) output stays resident for the whole grid; quantized
    outputs are charged when consumed, scored in place and dropped before
    the next receive. In-process frames arrive by reference, which is safe:
    the coordinator drops its own reference once `hand_off` returns.
    """
    layer, y_fp = fp.layer, fp.tensor
    ctx.account.alloc(y_fp.nbytes, f"y_fp[L{layer}]")
    for _ in range(fp.count):
        msg = ctx.recv(COORDINATOR, "layer_output", layer, "q")
        ctx.account.alloc(msg.tensor.nbytes, f"y_q[L{layer}]")
        point = msg.ratio, layer_loss(y_fp, msg.tensor)
        ctx.account.free(msg.tensor.nbytes, f"y_q[L{layer}]")
        del msg
        yield point
    ctx.account.free(y_fp.nbytes, f"y_fp[L{layer}]")


def _charged_curve(account: MemoryAccount, layer: int, points: Iterable[tuple[float, float]]) -> list:
    """Collect a loss curve, charging 16 B per point; the whole curve is freed once complete."""
    curve = []
    for point in points:
        account.alloc(16, f"curve[L{layer}]")
        curve.append(point)
    account.free(16 * len(curve), f"curve[L{layer}]")
    return curve


def _cal_worker_loop(ctx: _WorkerCtx) -> None:
    """Event loop of the scale worker and the loss worker.

    All dispatches arrive from the coordinator: a stat_request goes to the
    scale worker, a full-precision layer_output to the loss worker (the
    last one). The loss worker scores the layer's grid and sends the curve
    to the scale worker as loss reports; when one worker holds both roles
    it scores the grid inline. The scale worker fixes the ratio from the
    complete curve and reports it to the coordinator.
    """
    me, account = ctx.me, ctx.account
    loss_worker = ctx.transport.worker_ids[-1]
    while (msg := ctx.recv(COORDINATOR)).kind != "done":
        layer = msg.layer
        if msg.kind == "layer_output" and msg.stream == "fp":
            for r, loss in _charged_curve(account, layer, _scored_points(ctx, msg)):
                ctx.transport.send(CalMessage("loss_report", me, SCALE_WORKER, layer=layer, ratio=r, loss=loss))
            continue
        if msg.kind != "stat_request":
            raise ProtocolError(f"worker {me} got unexpected {msg.kind} from coordinator")
        x_stat = msg.tensor
        account.alloc(x_stat.nbytes, f"x_stat[L{layer}]")
        if loss_worker == me:
            points = _scored_points(ctx, ctx.recv(COORDINATOR, "layer_output", layer, "fp"))
        else:
            reports = (ctx.recv(loss_worker, "loss_report", layer) for _ in range(msg.count))
            points = ((rep.ratio, rep.loss) for rep in reports)
        curve = _charged_curve(account, layer, points)
        r_star = select_ratio(curve)
        scale = power_scale(x_stat, r_star).values
        account.alloc(scale.nbytes, f"scale[L{layer}]")
        account.free(scale.nbytes, f"scale[L{layer}]")
        account.free(x_stat.nbytes, f"x_stat[L{layer}]")
        ctx.transport.send(
            CalMessage("ratio_fixed", me, COORDINATOR, layer=layer, ratio=r_star, tensor=scale, curve=tuple(curve))
        )


def run_distributed_calibration(
    stack: LayerStack,
    activations: np.ndarray,
    *,
    workers: int = 3,
    transport: str = "in_process",
    strategy: str = "passact2",
    stat_mode: str = "topk",
    grid: RatioGrid = RatioGrid(),
    cfg_w: QuantConfig,
    cfg_a: QuantConfig,
    fraction: float = 0.5,
    loss: ProxyLossSpec = ProxyLossSpec(),
    timeout: float = 30.0,
    fault_injection: dict[int, int] | None = None,
) -> tuple[CalibrationResult, MemoryReport]:
    """Distribute the layer-wise search across 2 or 3 workers.

    Returns the calibration result (bit-identical to the single-context
    calibrator for the same inputs) and the per-worker memory report. The
    caller's thread acts as worker 0, which infers and coordinates; worker 1
    fixes scales and the last worker scores losses. They run as threads and
    exchange CalMessages only.
    """
    if workers not in (2, 3):
        raise ConfigError(f"distributed calibration needs 2 or 3 workers, got {workers}")
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN and inf fail too; longer waits overflow
        raise ConfigError(f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} seconds, got {timeout}")
    me, loss_worker, helpers = COORDINATOR, workers - 1, range(1, workers)
    chans = make_transport(transport, range(workers))
    chans.send_timeout = timeout
    accounts = [MemoryAccount() for _ in range(workers)]
    coordinator = _WorkerCtx(me, chans, accounts[me], timeout)
    fault_injection = fault_injection or {}
    errors: list[BaseException] = []

    def _run_worker(wid: int) -> None:
        ctx = _WorkerCtx(wid, chans, accounts[wid], timeout, fault_injection.get(wid))
        try:
            _cal_worker_loop(ctx)
        except _InjectedCrash:
            pass  # simulated hard crash: no abort message, the peer times out
        except BaseException as exc:  # noqa: BLE001 - propagated to the coordinator
            errors.append(exc)
            chans.abort_peers(wid, f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=_run_worker, args=(w,), daemon=True, name=f"calworker-{w}")
        for w in helpers
    ]
    for t in threads:
        t.start()

    points = grid.points()

    def remote_search(task: LinearTask, stat: np.ndarray):
        """Score one layer's grid on the scale and loss workers; (r*, curve) from ratio_fixed."""
        layer_idx, lin = task.index, task.layer

        def hand_off(stream: str, y: np.ndarray, ratio: float | None = None) -> None:
            """Send one output to the loss worker; the coordinator holds it until the send completes."""
            tag = f"y_{stream}[L{layer_idx}]"
            accounts[me].alloc(y.nbytes, tag)
            chans.send(CalMessage("layer_output", me, loss_worker, layer=layer_idx, count=len(points),
                                  stream=stream, ratio=ratio, tensor=y))
            accounts[me].free(y.nbytes, tag)

        chans.send(CalMessage("stat_request", me, SCALE_WORKER, layer=layer_idx, count=len(points), tensor=stat))
        hand_off("fp", _batch_fp(lin, task.fp_inputs))
        for r in points:
            hand_off("q", apply_linear_quant(lin, task.q_inputs, power_scale(stat, r), cfg_w, cfg_a), r)

        fixed = coordinator.recv(SCALE_WORKER, "ratio_fixed", layer_idx)
        if not np.array_equal(power_scale(stat, fixed.ratio).values, fixed.tensor):
            raise ProtocolError(
                f"layer {lin.name!r}: scale from worker {SCALE_WORKER} does not match "
                "the coordinator's statistic"
            )
        return fixed.ratio, tuple(fixed.curve)

    try:
        result = _calibration_loop(
            stack, activations, remote_search, accounts[me],
            strategy=strategy, stat_mode=stat_mode, grid=grid, cfg_w=cfg_w, cfg_a=cfg_a, fraction=fraction, loss=loss,
        )
        for wid in helpers:
            chans.send(CalMessage("done", sender=me, receiver=wid))
    except BaseException:
        chans.abort_peers(me, "coordinator failed")
        if not errors or chans.aborted_by == me:
            raise
        # a worker failed first: its error, raised below, is the cause
    finally:
        for t in threads:
            t.join(timeout=timeout)
        chans.close()
    if errors:
        raise ProtocolError(f"worker failed: {errors[0]}") from errors[0]

    b, n = activations.shape[0], activations.shape[1]
    base = max(baseline_peak((lin.weight.shape[1], lin.weight.shape[0]), (b, n)) for _, lin in stack.linears())
    report = MemoryReport(
        base, tuple(WorkerMemory(wid, acc.peak, acc.current, len(acc.events)) for wid, acc in enumerate(accounts))
    )
    return result, report

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
bit-identical tensors (float64 survives the wire exactly): the coordinator
builds each whole y_q to send it, and the loss worker's `layer_loss` sums
each sample as `search_ratio`'s block scorer does, so the distributed
result equals the single-context result bit for bit.

Every worker, the coordinator included, runs under one lifecycle: a
failure is recorded for the run, and the worker's exit, failed or not,
closes its channel ends, as a process's exit would. So a failure reaches a
peer only through the failing worker's own channels. A wait on a closed
channel ends at once and names the worker that closed it; frames sent
before the close stay readable. The run raises the first failure.
"""

from __future__ import annotations

import collections
import contextlib
import socket
import struct
import threading
import time
import zlib
from dataclasses import dataclass, replace
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
    row_fault,
    select_ratio,
)
from .errors import ConfigError, LedgerError, ProtocolError
from .layers import LayerStack
from .model import ProxyLossSpec, _Reader, apply_linear_quant, quantized_weight
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

# kind -> (struct format of its fixed fields, their CalMessage names in wire
# order, whether a tensor follows them); a kind's code is its position plus 1
_LAYOUTS = {
    "layer_output": ("<IBId", ("layer", "stream", "count", "ratio"), True),
    "stat_request": ("<II", ("layer", "count"), True),
    "loss_report": ("<Idd", ("layer", "ratio", "loss"), False),
    "ratio_fixed": ("<Id", ("layer", "ratio"), True),
    "done": ("<", (), False),
}
MSG_KINDS = tuple(_LAYOUTS)


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


def _frame_parts(msg: CalMessage) -> list:
    """One frame as a short list of parts whose concatenation is the frame.

    The length prefix and the fields are packed into the first part; a
    tensor's payload follows as a byte view of its own (C-order, float64)
    buffer, not a copy, and then any trailing fields.
    """
    if msg.kind not in _LAYOUTS:
        raise ProtocolError(f"cannot encode message kind {msg.kind!r}")
    fmt, names, has_tensor = _LAYOUTS[msg.kind]
    needed = [*names] + ["tensor"] * has_tensor + ["curve"] * (msg.kind == "ratio_fixed")
    missing = [n for n in needed if getattr(msg, n) is None and (msg.kind, n) != ("layer_output", "ratio")]
    if missing:
        raise ProtocolError(f"cannot encode {msg.kind} message without {', '.join(missing)}")
    fields = [getattr(msg, name) for name in names]
    if msg.kind == "layer_output":  # the stream as its code, a missing ratio as NaN
        if msg.stream not in ("fp", "q"):
            raise ProtocolError(f"cannot encode layer_output stream {msg.stream!r}")
        fields[1], fields[3] = ("fp", "q").index(msg.stream), float("nan") if msg.ratio is None else msg.ratio
    try:
        parts = [struct.pack("<BHHQ" + fmt[1:], MSG_KINDS.index(msg.kind) + 1, msg.sender, msg.receiver, msg.seq, *fields)]
        if has_tensor:
            payload = np.ascontiguousarray(msg.tensor, dtype="<f8").reshape(-1).view(np.uint8)
            parts[0] += struct.pack(f"<B{msg.tensor.ndim}II", msg.tensor.ndim, *msg.tensor.shape, zlib.crc32(payload))
            parts.append(payload)
        if msg.kind == "ratio_fixed":  # the loss curve trails the tensor
            parts.append(struct.pack("<I", len(msg.curve)) + b"".join(struct.pack("<dd", r, loss) for r, loss in msg.curve))
        parts[0] = struct.pack("<I", sum(len(p) for p in parts)) + parts[0]
    except struct.error as e:  # a field outside its wire range, such as an unsent message's seq -1
        raise ProtocolError(f"cannot encode {msg.kind} message: {e}") from None
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
    if not 1 <= code <= len(MSG_KINDS):
        raise ProtocolError(f"unknown message kind code {code}")
    kind = MSG_KINDS[code - 1]
    fmt, names, has_tensor = _LAYOUTS[kind]
    fields = dict(zip(names, c.unpack(fmt)))
    if kind == "layer_output":  # the stream from its code, NaN as a missing ratio
        if fields["stream"] > 1:
            raise ProtocolError(f"unknown stream code {fields['stream']}")
        fields["stream"] = ("fp", "q")[fields["stream"]]
        fields["ratio"] = None if np.isnan(fields["ratio"]) else fields["ratio"]
    if has_tensor:
        (ndim,) = c.unpack("<B")
        shape = c.unpack(f"<{ndim}I")
        (crc,) = c.unpack("<I")
        fields["tensor"] = c.f64s(*shape)
        if zlib.crc32(fields["tensor"]) != crc:
            raise ProtocolError("tensor checksum mismatch")
    if kind == "ratio_fixed":  # the loss curve trails the tensor
        fields["curve"] = tuple(c.unpack("<dd") for _ in range(*c.unpack("<I")))
    c.done()
    return CalMessage(kind, sender, receiver, seq, **fields)


# --- transports -----------------------------------------------------------------


class _BaseTransport:
    """Point-to-point ordered channels with per-channel sequence numbers.

    `send_timeout` bounds how long a send may block on a full channel
    (None: no bound); a send that runs out of it raises ProtocolError.
    Subclasses provide `send`, `_recv` and `close_ends(worker)`, which
    closes the worker's end of each of its channels, as its exit would.
    """

    def __init__(self, worker_ids: Sequence[int]):
        self.worker_ids = tuple(worker_ids)
        self.send_timeout: float | None = None
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}

    def _next_seq(self, src: int, dst: int) -> int:
        seq = self._send_seq.get((src, dst), -1) + 1
        self._send_seq[(src, dst)] = seq
        return seq

    def recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        """Next message on channel sender->receiver, checked for route and order."""
        msg = self._recv(receiver, sender, timeout)
        key = (sender, receiver)
        if (msg.sender, msg.receiver) != key:
            raise ProtocolError(
                f"misrouted frame: {msg.sender}->{msg.receiver} on channel {sender}->{receiver}"
            )
        last = self._recv_seq.get(key, -1)
        if msg.seq != last + 1:
            raise ProtocolError(f"out-of-order message on channel {key}: expected seq {last + 1}, got {msg.seq}")
        self._recv_seq[key] = msg.seq
        return msg

    def close(self) -> None:
        pass


# frames an in-process channel holds before its sender waits
CHANNEL_FRAMES = 2


class InProcessTransport(_BaseTransport):
    """Deque-backed channels; messages cross as objects, without serialization.

    Each channel holds at most `CHANNEL_FRAMES` messages, so at most that
    many times the largest tensor is in flight on it, unledgered. A send to
    a full channel or a receive from an empty one waits on the channel's
    condition until the peer acts, either end closes or the deadline
    passes. A closed channel refuses sends at once and still yields the
    frames queued on it, then refuses receives.
    """

    def __init__(self, worker_ids: Sequence[int]):
        super().__init__(worker_ids)
        lock = threading.Lock()  # one lock for every channel's condition
        self._queues = {(a, b): collections.deque() for a in worker_ids for b in worker_ids if a != b}
        self._conds = {key: threading.Condition(lock) for key in self._queues}
        self._closed: set[tuple[int, int]] = set()

    def _wait(self, cond: threading.Condition, ready, timeout: float | None, failure: str) -> None:
        """Under `cond`: wait until ready() or `timeout` passes (None: no bound)."""
        if not cond.wait_for(ready, timeout):
            raise ProtocolError(failure)

    def send(self, msg: CalMessage) -> None:
        key = (msg.sender, msg.receiver)
        framed = replace(msg, seq=self._next_seq(*key))
        chan, cond = self._queues[key], self._conds[key]
        failed = f"send to worker {msg.receiver} (sender {msg.sender}) failed"
        with cond:
            self._wait(cond, lambda: key in self._closed or len(chan) < CHANNEL_FRAMES, self.send_timeout,
                       f"{failed}: channel full for {self.send_timeout} s")
            if key in self._closed:
                raise ProtocolError(f"{failed}: worker {msg.receiver} closed the channel")
            chan.append(framed)
            cond.notify_all()

    def _recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        key = (sender, receiver)
        chan, cond = self._queues[key], self._conds[key]
        with cond:
            self._wait(cond, lambda: chan or key in self._closed, timeout,
                       f"timeout waiting for worker {sender} (receiver {receiver})")
            if not chan:
                raise ProtocolError(f"connection closed while waiting for worker {sender} (receiver {receiver})")
            msg = chan.popleft()
            cond.notify_all()
        return msg

    def close_ends(self, worker: int) -> None:
        for peer in set(self.worker_ids) - {worker}:
            for key in ((worker, peer), (peer, worker)):
                with self._conds[key]:
                    self._closed.add(key)
                    self._conds[key].notify_all()


class SocketTransport(_BaseTransport):
    """Local stream sockets carrying length-prefixed frames.

    Every worker pair gets one full-duplex socketpair, so tensors really
    cross a byte stream with checksums, mirroring a multi-process setup.
    A send or receive blocks in the socket until its frame has crossed,
    its deadline passes or the peer shuts its end down; frames written
    before the shutdown stay readable.
    """

    def __init__(self, worker_ids: Sequence[int]):
        super().__init__(worker_ids)
        self._ends: dict[tuple[int, int], socket.socket] = {}
        for i, a in enumerate(worker_ids):
            for b in worker_ids[i + 1 :]:
                end_a, end_b = socket.socketpair()
                self._ends[(a, b)] = end_a  # a's endpoint for peer b
                self._ends[(b, a)] = end_b

    def send(self, msg: CalMessage) -> None:
        """Write the frame's parts in order under one deadline for the whole frame.

        A send waiting for room fails at once when the receiver shuts its end down.
        """
        seq = self._next_seq(msg.sender, msg.receiver)
        parts = _frame_parts(replace(msg, seq=seq))
        sock = self._ends[(msg.sender, msg.receiver)]
        deadline = None if self.send_timeout is None else time.monotonic() + self.send_timeout
        try:
            for part in parts:
                sock.settimeout(None if deadline is None else max(0.0, deadline - time.monotonic()))
                sock.sendall(part)
        except OSError as exc:  # TimeoutError: the receiver stopped reading; BrokenPipeError: it closed
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
            if not k:  # the peer closed or shut its end down
                raise ProtocolError(f"connection closed while waiting for {who}")
            got += k
        return buf

    def _recv(self, receiver: int, sender: int, timeout: float) -> CalMessage:
        sock = self._ends[(receiver, sender)]
        deadline = time.monotonic() + timeout
        who = f"worker {sender} (receiver {receiver})"
        (length,) = struct.unpack("<I", self._read_exact(sock, 4, who, deadline))
        return decode_message(self._read_exact(sock, length, who, deadline))

    def close_ends(self, worker: int) -> None:
        for peer in set(self.worker_ids) - {worker}:  # shutdown, not close: a later use reads as a closed channel
            with contextlib.suppress(OSError):
                self._ends[(worker, peer)].shutdown(socket.SHUT_RDWR)

    def close(self) -> None:
        for sock in self._ends.values():
            with contextlib.suppress(OSError):
                sock.close()


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


@dataclass
class _WorkerCtx:
    me: int
    transport: _BaseTransport
    account: MemoryAccount
    timeout: float

    def recv(self, sender: int, kind: str | None = None, layer: int | None = None, stream: str | None = None):
        """Next message from `sender`; with a `kind`, exactly that step (same kind, layer and stream)."""
        msg = self.transport.recv(self.me, sender, self.timeout)
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
    if fp.ratio is not None:
        raise ProtocolError(f"worker {ctx.me}: the full-precision output of layer {layer} carries a ratio")
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
) -> tuple[CalibrationResult, MemoryReport]:
    """Distribute the layer-wise search across 2 or 3 workers.

    Returns the calibration result (bit-identical to the single-context
    calibrator for the same inputs) and the per-worker memory report. The
    caller's thread acts as worker 0, which infers and coordinates; worker 1
    fixes scales and the last worker scores losses. They run as threads and
    exchange CalMessages only. A batch that is not C-contiguous is copied
    once into C order, as in `calibrate`; the ledger does not count the copy.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers not in (2, 3):
        raise ConfigError(f"distributed calibration needs 2 or 3 workers, got {workers}")
    if not 0 < timeout <= threading.TIMEOUT_MAX:  # NaN and inf fail too; longer waits overflow
        raise ConfigError(f"timeout must be > 0 and at most {threading.TIMEOUT_MAX:.0f} seconds, got {timeout}")
    loss_worker, helpers = workers - 1, range(1, workers)
    chans = make_transport(transport, range(workers))
    chans.send_timeout = timeout
    ctxs = [_WorkerCtx(wid, chans, MemoryAccount(), timeout) for wid in range(workers)]
    failures: list[tuple[int, BaseException]] = []  # (worker, its error), in the order they failed

    def run_worker(wid: int, role):
        """role(worker wid's context), whose value it returns; a failure is recorded before the exit closes its ends."""
        try:
            return role(ctxs[wid])
        except BaseException as exc:  # noqa: BLE001 - the run raises the first failure
            failures.append((wid, exc))
        finally:  # as a process's exit would: a peer still waiting on this worker ends at once
            chans.close_ends(wid)

    points = grid.points()

    def remote_search(task: LinearTask, stat: np.ndarray):
        """Score one layer's grid on the scale and loss workers; (r*, curve) from ratio_fixed."""
        layer_idx, lin, ctx = task.index, task.layer, ctxs[COORDINATOR]

        def hand_off(stream: str, y: np.ndarray, ratio: float | None = None) -> None:
            """Send one output to the loss worker; the coordinator holds it until the send completes."""
            tag = f"y_{stream}[L{layer_idx}]"
            ctx.account.alloc(y.nbytes, tag)
            chans.send(CalMessage("layer_output", ctx.me, loss_worker, layer=layer_idx, count=len(points),
                                  stream=stream, ratio=ratio, tensor=y))
            ctx.account.free(y.nbytes, tag)

        chans.send(CalMessage("stat_request", ctx.me, SCALE_WORKER, layer=layer_idx, count=len(points), tensor=stat))
        hand_off("fp", _batch_fp(lin, task.fp_inputs))
        for r in points:
            scale = power_scale(stat, r)
            hand_off("q", apply_linear_quant(lin, task.q_inputs, scale, quantized_weight(lin, scale, cfg_w), cfg_a), r)

        fixed = ctx.recv(SCALE_WORKER, "ratio_fixed", layer_idx)
        if fault := row_fault(points, fixed.curve, fixed.ratio):
            raise ProtocolError(
                f"layer {lin.name!r}: ratio_fixed from worker {SCALE_WORKER} does not hold "
                f"this grid's curve and its selected ratio: {fault}"
            )
        if not np.array_equal(power_scale(stat, fixed.ratio).values, fixed.tensor):
            raise ProtocolError(
                f"layer {lin.name!r}: scale from worker {SCALE_WORKER} does not match "
                "the coordinator's statistic"
            )
        return fixed.ratio, tuple(fixed.curve)

    def coordinate(ctx: _WorkerCtx) -> CalibrationResult:
        result = _calibration_loop(
            stack, activations, remote_search, ctx.account,
            strategy=strategy, stat_mode=stat_mode, grid=grid, cfg_w=cfg_w, cfg_a=cfg_a, fraction=fraction, loss=loss,
        )
        for wid in helpers:
            chans.send(CalMessage("done", sender=ctx.me, receiver=wid))
        return result

    threads = [
        threading.Thread(target=run_worker, args=(w, _cal_worker_loop), daemon=True, name=f"calworker-{w}")
        for w in helpers
    ]
    for t in threads:
        t.start()
    result = run_worker(COORDINATOR, coordinate)
    for t in threads:
        t.join(timeout=timeout)
    chans.close()
    if failures:
        wid, exc = failures[0]
        if wid == COORDINATOR:
            raise exc
        raise ProtocolError(f"worker failed: {exc}") from exc

    b, n = activations.shape[0], activations.shape[1]
    base = max(baseline_peak((lin.weight.shape[1], lin.weight.shape[0]), (b, n)) for _, lin in stack.linears())
    report = MemoryReport(
        base, tuple(WorkerMemory(c.me, c.account.peak, c.account.current, len(c.account.events)) for c in ctxs)
    )
    return result, report

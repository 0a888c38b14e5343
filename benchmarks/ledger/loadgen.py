"""Load generator for ``repro serve``: open loop and closed loop, over
persistent JSONL connections or one-request-per-connection HTTP/1.1.

Standard library only, so the self-test can point it at a stub server.

Design notes (each one removes a way the client could flatter or
smear the server's numbers):

* The client is its own process with blocking sockets, one sender
  thread pacing with ``sleep`` and one reader thread — never the
  server's event loop, and no asyncio timers (they overshoot by
  0.5–1 ms, which in a prototype was most of the measured p50).
* Open-loop requests are timed from when they were *due*, not from
  when they were sent: a stall delays the answers of every request
  due while it lasts, and all of them show it (no coordinated
  omission). How late the sender itself ran is reported as ``late_*``.
* Replies are kept as raw bytes and parsed after the phase, so JSON
  decoding never competes with the sender for the interpreter lock.
"""

from __future__ import annotations

import gc
import json
import math
import random
import selectors
import socket
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, sleep
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from spans import percentile

JSONL = "jsonl"
HTTP = "http"

Address = Tuple[str, int]

#: How long after the last send the reader waits for stragglers.
DRAIN_TIMEOUT_S = 3.0


def encode_request(protocol: str, op: str, tweet: Dict[str, object]) -> bytes:
    """Wire bytes for one scoring request."""
    if protocol == JSONL:
        body = json.dumps({"op": op, "tweet": tweet}, separators=(",", ":"))
        return body.encode("utf-8") + b"\n"
    body_bytes = json.dumps({"tweet": tweet}, separators=(",", ":")).encode()
    head = (
        f"POST /{op} HTTP/1.1\r\nHost: ledger\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body_bytes)}\r\n\r\n"
    )
    return head.encode("latin-1") + body_bytes


def http_get(address: Address, path: str, timeout_s: float = 5.0) -> Tuple[int, bytes]:
    """One blocking ``GET``; returns (status, body)."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: ledger\r\n\r\n".encode())
        raw = _recv_until_eof(sock)
    return _split_http(raw)


def _recv_until_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _split_http(raw: bytes) -> Tuple[int, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def _connect(address: Address) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.connect(address)
    return sock


@dataclass
class PhaseResult:
    """Raw per-request timeline of one load phase."""

    protocol: str
    mode: str  # "open" or "closed"
    t0: float
    duration_s: float
    due: List[float]
    sent: List[float]
    done: List[float]  # nan = never answered
    replies: List[Optional[bytes]]
    conn_errors: int = 0
    # Filled by parse():
    status: List[int] = field(default_factory=list)
    predicted: List[Optional[str]] = field(default_factory=list)
    version: List[Optional[int]] = field(default_factory=list)
    degraded: List[bool] = field(default_factory=list)

    def parse(self) -> "PhaseResult":
        """Decode the raw replies (status, label, snapshot version)."""
        self.status, self.predicted = [], []
        self.version, self.degraded = [], []
        for raw in self.replies:
            status, body = 0, {}
            if raw is not None:
                try:
                    if self.protocol == HTTP:
                        status, payload = _split_http(raw)
                        body = json.loads(payload) if payload else {}
                    else:
                        body = json.loads(raw)
                        status = int(body.get("status", 0))
                except (ValueError, AttributeError):
                    status, body = 0, {}
            self.status.append(status)
            self.predicted.append(body.get("predicted"))
            self.version.append(body.get("snapshot_version"))
            self.degraded.append(bool(body.get("degraded", False)))
        return self

    # -- reductions -----------------------------------------------------

    def ok_indices(self, valid_labels: Set[str]) -> List[int]:
        return [
            i for i, status in enumerate(self.status)
            if status == 200 and self.predicted[i] in valid_labels
        ]

    def summary(self, valid_labels: Set[str]) -> Dict[str, object]:
        """Counts, due-time latency percentiles, sender lateness and
        completions per second for this phase."""
        ok = self.ok_indices(valid_labels)
        ok_set = set(ok)
        latency_ms = [(self.done[i] - self.due[i]) * 1e3 for i in ok]
        late_ms = [(s - d) * 1e3 for s, d in zip(self.sent, self.due)]
        end = self.t0 + self.duration_s
        return {
            "sent": len(self.due),
            "ok": len(ok),
            "shed_429": sum(1 for s in self.status if s == 429),
            # Every request has exactly one outcome: ok, shed, or error
            # (refused connection, unanswered, non-200, invalid label).
            "errors": sum(
                1 for i, s in enumerate(self.status)
                if i not in ok_set and s != 429
            ),
            "conn_errors": self.conn_errors,
            "server_5xx": sum(1 for s in self.status if 500 <= s < 600),
            "degraded": sum(1 for i in ok if self.degraded[i]),
            "versions": sorted(
                {self.version[i] for i in ok if self.version[i] is not None}
            ),
            "p50_ms": percentile(latency_ms, 50),
            "p95_ms": percentile(latency_ms, 95),
            "p99_ms": percentile(latency_ms, 99),
            "late_p50_ms": percentile(late_ms, 50),
            "late_p95_ms": percentile(late_ms, 95),
            "late_p99_ms": percentile(late_ms, 99),
            "late_max_ms": max(late_ms, default=math.nan),
            "qps": sum(1 for i in ok if self.done[i] <= end) / self.duration_s,
        }


class _Conn:
    __slots__ = ("sock", "fifo", "buf")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.fifo: Deque[int] = deque()
        self.buf = bytearray()


class _OpenLoop:
    """One open-loop phase: a sender thread on a Poisson schedule and a
    reader thread collecting raw replies."""

    def __init__(
        self,
        address: Address,
        protocol: str,
        payloads: Sequence[bytes],
        rate_hz: float,
        duration_s: float,
        seed: int,
        n_connections: int,
    ) -> None:
        self.address = address
        self.protocol = protocol
        self.payloads = payloads
        self.duration_s = duration_s
        rng = random.Random(seed)
        offsets, t = [], rng.expovariate(rate_hz)
        while t < duration_s:
            offsets.append(t)
            t += rng.expovariate(rate_hz)
        self.offsets = offsets
        n = len(offsets)
        self.sent = [math.nan] * n
        self.done = [math.nan] * n
        self.replies: List[Optional[bytes]] = [None] * n
        self.n_connections = n_connections
        self.conn_errors = 0
        self.n_issued = 0  # written by the sender only
        self.n_settled = 0  # written by the reader only
        self.sender_done = False
        self.selector = selectors.DefaultSelector()
        self.conns: List[_Conn] = []

    # -- sender ---------------------------------------------------------

    def _send_all(self, t0: float) -> None:
        payloads, n_payloads = self.payloads, len(self.payloads)
        jsonl = self.protocol == JSONL
        conns, n_conns = self.conns, len(self.conns)
        sent = self.sent
        for i, offset in enumerate(self.offsets):
            delay = t0 + offset - perf_counter()
            if delay > 0:
                sleep(delay)
            payload = payloads[i % n_payloads]
            sent[i] = perf_counter()
            try:
                if jsonl:
                    # Queued before the send so the reply can never
                    # arrive unowned; a broken connection makes the
                    # reader settle everything still queued on it.
                    conn = conns[i % n_conns]
                    conn.fifo.append(i)
                    self.n_issued += 1
                    conn.sock.sendall(payload)
                else:
                    sock = _connect(self.address)
                    try:
                        sock.sendall(payload)
                    except OSError:
                        sock.close()
                        raise
                    self.n_issued += 1
                    self.selector.register(
                        sock, selectors.EVENT_READ, (i, bytearray())
                    )
            except OSError:
                self.conn_errors += 1
        self.sender_done = True

    # -- reader ---------------------------------------------------------

    def _settle(self, index: int, now: float, raw: Optional[bytes]) -> None:
        self.done[index] = now if raw is not None else math.nan
        self.replies[index] = raw
        self.n_settled += 1

    def _read_jsonl(self, conn: _Conn) -> None:
        try:
            chunk = conn.sock.recv(65536)
        except OSError:
            chunk = b""
        now = perf_counter()
        if not chunk:
            self.selector.unregister(conn.sock)
            while conn.fifo:
                self.conn_errors += 1
                self._settle(conn.fifo.popleft(), now, None)
            return
        buf = conn.buf
        buf += chunk
        while True:
            newline = buf.find(b"\n")
            if newline < 0:
                return
            line = bytes(buf[:newline])
            del buf[:newline + 1]
            self._settle(conn.fifo.popleft(), now, line)

    def _read_http(self, key: selectors.SelectorKey) -> None:
        index, buf = key.data
        sock = key.fileobj
        try:
            chunk = sock.recv(65536)
        except OSError:
            self.conn_errors += 1
            chunk, buf = b"", None
        if chunk:
            buf += chunk
            return
        now = perf_counter()
        self.selector.unregister(sock)
        sock.close()
        self._settle(index, now, bytes(buf) if buf else None)

    def _read_all(self) -> None:
        jsonl = self.protocol == JSONL
        deadline = None
        while True:
            if self.sender_done:
                if self.n_settled >= self.n_issued:
                    return
                if deadline is None:
                    deadline = perf_counter() + DRAIN_TIMEOUT_S
                elif perf_counter() > deadline:
                    return
            for key, _ in self.selector.select(timeout=0.05):
                if jsonl:
                    self._read_jsonl(key.data)
                else:
                    self._read_http(key)

    # -- driver ---------------------------------------------------------

    def run(self, hook: Optional[Callable[[], None]]) -> PhaseResult:
        if self.protocol == JSONL:
            for _ in range(self.n_connections):
                conn = _Conn(_connect(self.address))
                self.conns.append(conn)
                self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        timer = (
            threading.Timer(self.duration_s / 2.0, hook)
            if hook is not None else None
        )
        t0 = perf_counter() + 0.02
        reader = threading.Thread(target=self._read_all, name="ledger-reader")
        sender = threading.Thread(
            target=self._send_all, args=(t0,), name="ledger-sender"
        )
        reader.start()
        if timer is not None:
            timer.start()
        sender.start()
        sender.join()
        reader.join()
        if timer is not None:
            timer.join()
        for key in list(self.selector.get_map().values()):
            key.fileobj.close()
        self.selector.close()
        return PhaseResult(
            protocol=self.protocol,
            mode="open",
            t0=t0,
            duration_s=self.duration_s,
            due=[t0 + offset for offset in self.offsets],
            sent=self.sent,
            done=self.done,
            replies=self.replies,
            conn_errors=self.conn_errors,
        )


def _quiet_interpreter() -> Tuple[float, bool]:
    """Short switch interval so the sender gets the lock back quickly,
    and no collector pauses while a phase runs."""
    previous = (sys.getswitchinterval(), gc.isenabled())
    sys.setswitchinterval(0.0002)
    gc.collect()
    gc.disable()
    return previous


def _restore_interpreter(previous: Tuple[float, bool]) -> None:
    sys.setswitchinterval(previous[0])
    if previous[1]:
        gc.enable()


def open_loop(
    address: Address,
    protocol: str,
    payloads: Sequence[bytes],
    rate_hz: float,
    duration_s: float,
    seed: int,
    n_connections: int = 2,
    midpoint_hook: Optional[Callable[[], None]] = None,
) -> PhaseResult:
    """Send on a seeded Poisson schedule regardless of replies.

    ``midpoint_hook`` runs on its own thread halfway through (the hot
    snapshot swap).
    """
    previous = _quiet_interpreter()
    try:
        phase = _OpenLoop(
            address, protocol, payloads, rate_hz, duration_s, seed,
            n_connections,
        )
        return phase.run(midpoint_hook).parse()
    finally:
        _restore_interpreter(previous)


def _closed_worker(
    address: Address,
    protocol: str,
    payloads: Sequence[bytes],
    offset: int,
    end_at: float,
    max_requests: float,
    out: List[Tuple[float, float, Optional[bytes]]],
    errors: List[int],
) -> None:
    n_payloads = len(payloads)
    k = offset
    sock: Optional[socket.socket] = None
    buf = b""
    try:
        if protocol == JSONL:
            sock = _connect(address)
        while True:
            start = perf_counter()
            if start >= end_at or len(out) >= max_requests:
                return
            payload = payloads[k % n_payloads]
            k += 1
            try:
                if protocol == JSONL:
                    assert sock is not None
                    sock.sendall(payload)
                    while b"\n" not in buf:
                        chunk = sock.recv(65536)
                        if not chunk:
                            raise ConnectionError("server closed")
                        buf += chunk
                    raw, _, buf = buf.partition(b"\n")
                else:
                    with _connect(address) as http_sock:
                        http_sock.sendall(payload)
                        raw = _recv_until_eof(http_sock)
                out.append((start, perf_counter(), raw))
            except OSError:
                errors[0] += 1
                out.append((start, math.nan, None))
                if protocol == JSONL:
                    return
    finally:
        if sock is not None:
            sock.close()


def closed_loop(
    address: Address,
    protocol: str,
    payloads: Sequence[bytes],
    n_clients: int,
    duration_s: float,
    max_requests: float = math.inf,
) -> PhaseResult:
    """``n_clients`` callers, each sending its next request only after
    the previous reply arrived, for ``duration_s`` seconds or until
    each has sent ``max_requests``."""
    previous = _quiet_interpreter()
    try:
        t0 = perf_counter() + 0.01
        rows: List[List[Tuple[float, float, Optional[bytes]]]] = [
            [] for _ in range(n_clients)
        ]
        errors = [0]
        threads = [
            threading.Thread(
                target=_closed_worker,
                args=(
                    address, protocol, payloads,
                    c * (len(payloads) // max(n_clients, 1)),
                    t0 + duration_s, max_requests, rows[c], errors,
                ),
                name=f"ledger-client-{c}",
            )
            for c in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        _restore_interpreter(previous)
    merged = sorted(
        (row for client_rows in rows for row in client_rows),
        key=lambda row: row[0],
    )
    starts = [row[0] for row in merged]
    return PhaseResult(
        protocol=protocol,
        mode="closed",
        t0=t0,
        duration_s=duration_s,
        due=starts,
        sent=list(starts),
        done=[row[1] for row in merged],
        replies=[row[2] for row in merged],
        conn_errors=errors[0],
    ).parse()

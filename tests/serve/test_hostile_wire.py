"""Hostile wire input against the raw-socket serving path.

Truncated, oversized, trickled, pipelined, reset and never-read
traffic over plain blocking sockets (every call has a timeout, so each
case is bounded in time), plus the resource invariants the transports
used to keep for us: no connection left in ``server._connections``, no
descriptor leaked, no Task on the uncontended path.
"""

from __future__ import annotations

import json
import os
import resource
import socket
import struct
import time

import pytest

from repro.serve import wire
from repro.serve.server import AggressionServer
from repro.serve.snapshot import SnapshotStore

from tests.serve.conftest import (
    ServerThread,
    exchange,
    raw_connect,
    read_lines,
    read_to_eof,
    stalling_hook,
    wait_until,
)

# A raw socket collected unclosed is a failure here, not a warning.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

CLASSIFY = b'{"text":"you are horrible and stupid"}'


def post(path: bytes, body: bytes) -> bytes:
    return (
        b"POST " + path + b" HTTP/1.1\r\nHost: hostile\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def body_of(reply: bytes) -> bytes:
    return reply.partition(b"\r\n\r\n")[2]


def open_fds(thread: ServerThread) -> int:
    """Descriptors in this process, counted on the server's loop: there
    no snapshot poll can be holding its manifest open mid-read."""
    return thread.call(lambda: len(os.listdir("/proc/self/fd")))


@pytest.fixture
def served(tmp_path, trained_payload):
    store = SnapshotStore(tmp_path / "snaps")
    store.publish(trained_payload)
    server = AggressionServer(store, port=0, poll_interval_s=0.02)
    with ServerThread(server) as thread:
        yield thread


def n_connections(thread: ServerThread) -> int:
    return thread.call(lambda: len(thread.server._connections))


def refused(thread: ServerThread, reason: str) -> float:
    return thread.server.metrics.counter_value(
        "connections_refused_total", reason=reason
    )


class TestTruncatedFrames:
    def test_truncated_head_then_eof_is_dropped(self, served):
        reply = exchange(
            served.port, b"POST /classify HTTP/1.1\r\nHost: x\r\nConte",
            half_close=True,
        )
        assert reply == b""
        assert wait_until(lambda: n_connections(served) == 0)

    def test_body_shorter_than_declared_then_eof_is_dropped(self, served):
        request = post(b"/classify", CLASSIFY)[:-5]
        assert exchange(served.port, request, half_close=True) == b""
        assert wait_until(lambda: n_connections(served) == 0)
        # ... and the server still answers the next client.
        assert status_of(exchange(served.port, post(b"/classify", CLASSIFY))) == 200


class TestBounds:
    def test_declared_2mb_body_is_refused_before_it_is_read(self, served):
        head = (
            b"POST /classify HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n"
        )
        with raw_connect(served.port) as sock:
            sock.sendall(head + b"x" * 1000)  # the other 2 MB never sent
            reply = read_to_eof(sock)
        assert status_of(reply) == 413
        assert json.loads(body_of(reply)) == {
            "error": f"request body exceeds {wire.MAX_BODY_BYTES} bytes"
        }
        assert refused(served, "body_too_large") == 1.0

    def test_100kb_header_is_refused_431(self, served):
        with raw_connect(served.port) as sock:
            try:
                sock.sendall(
                    b"GET /health HTTP/1.1\r\nX-Pad: " + b"a" * 100_000
                )
            except OSError:
                pass  # refused (and closed) before we finished sending
            reply = read_to_eof(sock)
        assert status_of(reply) == 431
        assert refused(served, "head_too_large") == 1.0

    def test_oversized_jsonl_line_gets_one_413_line_then_close(self, served):
        with raw_connect(served.port) as sock:
            try:
                sock.sendall(
                    b'{"op":"classify","text":"'
                    + b"a" * (wire.MAX_BODY_BYTES + 70_000)
                )
            except OSError:
                pass
            reply = read_to_eof(sock)
        lines = reply.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["status"] == 413
        assert refused(served, "body_too_large") == 1.0

    def test_a_full_size_body_is_still_accepted(self, served):
        text = "a" * (wire.MAX_BODY_BYTES - 100)
        body = json.dumps({"text": text}).encode()
        assert len(body) <= wire.MAX_BODY_BYTES
        assert status_of(exchange(served.port, post(b"/classify", body))) == 200

    def test_refusals_show_up_on_metrics(self, served):
        exchange(served.port, b"GET / HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n")
        text = body_of(exchange(served.port, b"GET /metrics HTTP/1.1\r\n\r\n"))
        assert (
            b'repro_connections_refused_total{reason="body_too_large"} 1.0'
            in text
        )


class TestFraming:
    def test_one_byte_per_send_is_answered_like_one_segment(self, served):
        request = post(b"/classify", CLASSIFY)
        whole = exchange(served.port, request)
        with raw_connect(served.port) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for i in range(len(request)):
                sock.sendall(request[i:i + 1])
            trickled = read_to_eof(sock)

        def stable(reply: bytes) -> dict:
            answer = json.loads(body_of(reply))
            answer.pop("elapsed_s")
            return answer

        assert status_of(trickled) == 200
        assert stable(trickled) == stable(whole)

    def test_200_jsonl_lines_in_one_segment_answered_in_order(self, served):
        lines = [
            json.dumps({
                "op": "classify",
                "tweet": {"id_str": str(i), "text": f"message {i}"},
            })
            for i in range(200)
        ]
        with raw_connect(served.port) as sock:
            sock.sendall(("\n".join(lines) + "\n").encode())
            replies = [json.loads(line) for line in read_lines(sock, 200)]
        assert [r["tweet_id"] for r in replies] == [str(i) for i in range(200)]
        assert {r["status"] for r in replies} == {200}

    def test_garbage_between_valid_lines_costs_one_400(self, served):
        with raw_connect(served.port) as sock:
            sock.sendall(
                b'{"op":"classify","text":"before"}\n'
                b"\x00\xff garbage }{\n"
                b'{"op":"classify","text":"after"}\n'
            )
            statuses = [
                json.loads(line)["status"] for line in read_lines(sock, 3)
            ]
            assert statuses == [200, 400, 200]
            # The session is still alive.
            sock.sendall(b'{"op":"ready"}\n')
            assert json.loads(read_lines(sock, 1)[0])["ready"] is True

    def test_half_close_after_the_request_is_still_answered(self, served):
        reply = exchange(
            served.port, post(b"/classify", CLASSIFY), half_close=True
        )
        assert status_of(reply) == 200
        lines = exchange(
            served.port, b'{"op":"classify","text":"bye"}\n', half_close=True
        )
        assert json.loads(lines)["status"] == 200


def _inflate_metrics(thread: ServerThread, n_bytes: int) -> None:
    """Make ``/metrics`` a reply of about ``n_bytes`` (one non-blocking
    send takes ~2.8 MB on loopback; more than that leaves a tail)."""
    def fill() -> None:
        for i in range(n_bytes // 1000):
            thread.server.metrics.counter(
                "hostile_total", shard=f"{i:0960d}"
            ).inc()
    thread.call(fill)


class TestSlowAndVanishingReaders:
    def test_large_reply_to_a_slow_small_window_reader_arrives_whole(
        self, served, monkeypatch
    ):
        _inflate_metrics(served, 6_000_000)
        tail_writes = []
        real_writable = wire.Connection._writable

        def counting_writable(conn):
            tail_writes.append(len(conn.out))
            real_writable(conn)

        monkeypatch.setattr(wire.Connection, "_writable", counting_writable)
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        with sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.settimeout(5.0)
            sock.connect(("127.0.0.1", served.port))
            sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: slow\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks.append(chunk)
                if len(chunks) % 64 == 0:
                    time.sleep(0.001)
        reply = b"".join(chunks)
        head, _, body = reply.partition(b"\r\n\r\n")
        declared = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
        assert declared == len(body) > 5_000_000
        assert body.endswith(b"\n")
        assert len(tail_writes) > 1  # it did go through add_writer
        assert wait_until(lambda: n_connections(served) == 0)

    def test_jsonl_client_that_does_not_read_is_not_read_from(self, served):
        _inflate_metrics(served, 200_000)
        with raw_connect(served.port) as sock:
            sock.sendall(b'{"op":"metrics"}\n' * 80)  # ~16 MB of replies

            def paused() -> bool:
                conns = list(served.server._connections)
                return bool(conns) and not conns[0].reading and (
                    len(conns[0].out) > wire.HIGH_WATER_BYTES
                )

            assert wait_until(lambda: served.call(paused))
            # Bounded: a reply or two is queued, not all eighty.
            queued = served.call(
                lambda: len(next(iter(served.server._connections)).out)
            )
            assert queued < 1_000_000
            replies = read_lines(sock, 80)
        assert len(replies) == 80
        assert all(json.loads(line)["status"] == 200 for line in replies)

    def test_resets_and_abandoned_connections_leak_nothing(self, served):
        _inflate_metrics(served, 6_000_000)
        exchange(served.port, post(b"/classify", CLASSIFY))  # warm up
        assert wait_until(lambda: n_connections(served) == 0)
        baseline = open_fds(served)
        # RST in the middle of a reply too big for the socket buffers.
        for _ in range(5):
            sock = raw_connect(served.port)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.sendall(b"GET /metrics HTTP/1.1\r\n\r\n")
            assert sock.recv(1024)
            sock.close()
        # Connect-then-close, never a byte sent.
        # (in bursts under the listen backlog: a dropped SYN costs 1 s)
        for _ in range(40):
            for _ in range(50):
                raw_connect(served.port).close()
            assert wait_until(lambda: n_connections(served) == 0, 10.0)
        assert open_fds(served) == baseline
        assert status_of(exchange(served.port, post(b"/classify", CLASSIFY))) == 200


class TestStalledFrameSweep:
    def test_partial_frame_is_swept_and_idle_session_survives(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(wire, "FRAME_TIMEOUT_S", 0.15)
        with raw_connect(served.port) as idle, raw_connect(served.port) as loris, \
                raw_connect(served.port) as loris_jsonl:
            idle.sendall(b'{"op":"ready"}\n')
            assert json.loads(read_lines(idle, 1)[0])["ready"] is True
            loris.sendall(b"POST /classify HTTP/1.1\r\nContent-Le")
            loris_jsonl.sendall(b'{"op":"classify","text":"never fin')
            started = time.monotonic()
            assert read_to_eof(loris) == b""  # closed, no reply
            assert read_to_eof(loris_jsonl) == b""
            assert time.monotonic() - started < 3.0
            assert refused(served, "stalled") == 2.0
            # Same sweeps, empty buffer: untouched and still serving.
            time.sleep(0.3)
            idle.sendall(b'{"op":"ready"}\n')
            assert json.loads(read_lines(idle, 1)[0])["ready"] is True
            assert n_connections(served) == 1


class TestOrderBehindAWaitingRequest:
    def test_pipelined_lines_wait_their_turn(self, tmp_path, trained_payload):
        """A line that could be answered inline must not overtake the
        waiting request ahead of it on the same session."""
        stall, release = stalling_hook()
        store = SnapshotStore(tmp_path / "snaps")
        store.publish(trained_payload)
        server = AggressionServer(store, port=0, chaos_hook=stall)
        with ServerThread(server) as thread, raw_connect(thread.port) as sock:
            sock.sendall(
                b'{"op":"classify","text":"held"}\n{"op":"ready"}\n'
            )
            assert wait_until(
                lambda: thread.call(lambda: server.admission.inflight) == 1
            )
            sock.settimeout(0.2)
            with pytest.raises(socket.timeout):
                sock.recv(1)  # nothing overtakes the held request
            sock.settimeout(5.0)
            release.set()
            first, second = (json.loads(x) for x in read_lines(sock, 2))
        assert first["status"] == 200 and "predicted" in first
        assert second["ready"] is True


class TestHandlerBugs:
    def test_a_raising_handler_answers_500_and_frees_the_descriptor(
        self, served, monkeypatch
    ):
        exchange(served.port, b"GET /health HTTP/1.1\r\n\r\n")
        assert wait_until(lambda: n_connections(served) == 0)
        baseline = open_fds(served)

        def broken(*args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(served.server, "handle_http", broken)
        monkeypatch.setattr(served.server, "handle_jsonl", broken)
        reply = exchange(served.port, post(b"/classify", CLASSIFY))
        assert status_of(reply) == 500
        line = exchange(served.port, b'{"op":"classify","text":"x"}\n')
        assert json.loads(line) == {"error": "internal error", "status": 500}
        assert wait_until(lambda: n_connections(served) == 0)
        assert open_fds(served) == baseline


#: Well-formed JSON, wrongly typed fields: the client's error.
MISTYPED = (
    b'{"text":123}',
    b'{"text":["a"]}',
    b'{"text":"hi","user":5}',
    b'{"text":"hi","created_at":[1]}',
    b'{"text":"hi","deadline_ms":[1]}',
    b'{"text":"hi","deadline_ms":{"ms":5}}',
    b'{"text":"hi","deadline_ms":null}',
    b'{"text":"hi","deadline_ms":true}',
    b'{"text":"hi","deadline_ms":false}',
    b'{"text":"hi","deadline_ms":NaN}',
    b'{"text":"hi","deadline_ms":Infinity}',
    b'{"text":"hi","deadline_ms":-Infinity}',
)


class TestMistypedFields:
    @pytest.mark.parametrize("body", MISTYPED)
    def test_answered_400_over_http_and_jsonl(self, served, body):
        reply = exchange(served.port, post(b"/classify", body))
        assert status_of(reply) == 400
        assert b"Error" not in body_of(reply)  # no internal exception name
        if b"deadline_ms" in body:
            assert b"deadline_ms" in body_of(reply)  # names the field
        line = json.loads(exchange(served.port, body + b"\n", half_close=True))
        assert line["status"] == 400
        errors = served.server.metrics.counter_value("requests_error_total")
        assert errors == 0

    def test_64_in_a_row_leave_the_breaker_closed(self, served):
        lines = [MISTYPED[i % len(MISTYPED)] for i in range(64)]
        with raw_connect(served.port) as sock:
            sock.sendall(b"\n".join(lines) + b"\n")
            statuses = {
                json.loads(line)["status"] for line in read_lines(sock, 64)
            }
            assert statuses == {400}
            breaker = served.server.breakers["classify"]
            assert served.call(lambda: breaker.is_open) is False
            assert breaker.failure_rate == 0.0
            sock.sendall(CLASSIFY + b"\n")
            assert json.loads(read_lines(sock, 1)[0])["status"] == 200
        assert status_of(exchange(served.port, post(b"/classify", CLASSIFY))) == 200


class TestNoTaskOnTheUncontendedPath:
    def test_100_sequential_classifies_create_no_task(self, served):
        created = []
        real = served.loop.create_task

        def counting(coro, **kwargs):
            created.append(coro)
            return real(coro, **kwargs)

        served.call(setattr, served.loop, "create_task", counting)
        try:
            for _ in range(100):
                reply = exchange(served.port, post(b"/classify", CLASSIFY))
                assert status_of(reply) == 200
            with raw_connect(served.port) as sock:
                for _ in range(100):
                    sock.sendall(b'{"op":"classify","text":"hello there"}\n')
                    assert json.loads(read_lines(sock, 1)[0])["status"] == 200
            n_tasks = len(created)  # before the harness's own call() below
        finally:
            served.call(delattr, served.loop, "create_task")
        assert n_tasks == 0


class TestDescriptorExhaustion:
    def test_accept_pauses_and_recovers_instead_of_spinning(
        self, served, monkeypatch
    ):
        monkeypatch.setattr(wire, "ACCEPT_PAUSE_S", 0.2)
        pauses = []
        monkeypatch.setattr(wire.logger, "error", lambda *a: pauses.append(a))
        accept_calls = []
        real_accept = wire.Listener._accept

        def counting_accept(listener):
            accept_calls.append(time.monotonic())
            real_accept(listener)

        monkeypatch.setattr(wire.Listener, "_accept", counting_accept)
        # The listener registered the original bound method: re-register.
        listener = served.server._listener
        served.call(
            lambda: served.loop.add_reader(listener.sock, listener._accept)
        )
        clients = [socket.socket() for _ in range(6)]
        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        plugs = []
        try:
            for sock in clients:
                sock.settimeout(5.0)
            # The limit bounds descriptor *numbers*: plug every hole
            # below the highest one, then leave room for exactly two.
            top = max(int(fd) for fd in os.listdir("/proc/self/fd"))
            while not plugs or plugs[-1] < top:
                plugs.append(os.dup(0))
            resource.setrlimit(resource.RLIMIT_NOFILE, (plugs[-1] + 3, hard))
            started = time.monotonic()
            for sock in clients:  # persistent sessions: each holds a descriptor
                sock.connect(("127.0.0.1", served.port))
                sock.sendall(b'{"op":"ready"}\n')
            # Two are accepted; the third accept hits EMFILE and the
            # listener pauses until a session ends and frees a slot.
            # The clients live in this process, below the limit: closing
            # one before that accept would hand the server its slot (and
            # a server-side slot on EOF), and the listener may have run
            # before the last clients connected, so end no session until
            # the pause is in.
            wait_until(lambda: bool(pauses))
            replies = []
            for sock in clients:
                replies += read_lines(sock, 1)
                sock.close()
            elapsed = time.monotonic() - started
        finally:
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
            for fd in plugs:
                os.close(fd)
            for sock in clients:
                sock.close()
        assert [json.loads(line)["ready"] for line in replies] == [True] * 6
        assert pauses and elapsed >= 0.2  # it did pause ...
        # ... and a spin would be thousands of wake-ups inside the pause.
        assert len(accept_calls) < 40
        assert wait_until(lambda: n_connections(served) == 0)

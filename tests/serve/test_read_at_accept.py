"""Read at accept: a request whose bytes are already buffered when the
server accepts is answered in the accept callback and never registered.

Each case drives a real :class:`~repro.serve.wire.Listener` on a loop
that is not running: the client side is a plain blocking socket on
loopback, ``Listener._accept`` is called directly once the listener is
readable, and the loop runs only when a case needs the selector. A spy
on the loop's ``add_reader`` records which descriptors were registered.
"""

from __future__ import annotations

import asyncio
import os
import select
import socket
import struct
import time
from typing import Any, Iterator, List, Tuple

import pytest

from repro.serve import wire

from tests.serve.conftest import read_lines, read_to_eof

pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]

REQUEST = b"POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"


class EchoHandler:
    """The handler contract of ``wire``: every request answered inline."""

    def __init__(self) -> None:
        self.requests: List[Any] = []

    def handle_http(self, method: str, target: str, body: bytes) -> Any:
        self.requests.append((method, target, body))
        return 200, {"echo": body.decode()}, None

    def handle_jsonl(self, line: bytes) -> Any:
        self.requests.append(line)
        return 200, {"n": len(self.requests)}, None

    def refused(self, reason: str) -> None:  # pragma: no cover - unused
        raise AssertionError(f"refused: {reason}")


class Accepting:
    """A listener, its connection set, and what the spies saw."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.handler = EchoHandler()
        self.peers: set = set()
        self.listener = wire.Listener(
            self.loop, "127.0.0.1", 0, self.handler, self.peers
        )
        self.registered: List[int] = []
        real = self.loop.add_reader

        def spy(fd: Any, callback: Any, *args: Any) -> None:
            self.registered.append(fd)
            real(fd, callback, *args)

        self.loop.add_reader = spy  # type: ignore[method-assign]
        self.accepted: List[wire.Connection] = []

    def connect(self) -> socket.socket:
        sock = socket.create_connection(
            ("127.0.0.1", self.listener.port), timeout=5.0
        )
        readable, _, _ = select.select([self.listener.sock], [], [], 5.0)
        assert readable, "listener never became readable"
        return sock

    def accept(self) -> wire.Connection:
        """One ``_accept`` call; the one connection it made."""
        self.listener._accept()
        assert len(self.accepted) == 1
        return self.accepted[0]

    def run_until(self, predicate: Any, timeout_s: float = 5.0) -> bool:
        deadline = time.monotonic() + timeout_s
        while not predicate() and time.monotonic() < deadline:
            self.loop.run_until_complete(asyncio.sleep(0.002))
        return bool(predicate())

    def close(self) -> None:
        for conn in list(self.peers):
            conn.close()
        self.listener.close()
        self.loop.close()


@pytest.fixture
def accepting(monkeypatch) -> Iterator[Accepting]:
    state = Accepting()

    class Recorded(wire.Connection):
        __slots__ = ()

        def __init__(self, sock: socket.socket, *args: Any) -> None:
            state.accepted.append(self)
            super().__init__(sock, *args)

    monkeypatch.setattr(wire, "Connection", Recorded)
    try:
        yield state
    finally:
        state.close()


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def status_and_body(reply: bytes) -> Tuple[int, bytes]:
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def test_buffered_request_is_answered_at_accept_and_never_registered(
    accepting,
):
    with accepting.connect() as client:
        client.sendall(REQUEST)
        conn = accepting.accept()
        assert conn.sock is None  # answered and closed inside _accept
        assert conn.fd not in accepting.registered
        assert not accepting.peers
        assert status_and_body(read_to_eof(client)) == (200, b'{"echo":"hello"}')


def test_nothing_buffered_registers_and_answers_on_readiness(accepting):
    with accepting.connect() as client:
        conn = accepting.accept()
        assert accepting.registered == [conn.fd]
        assert accepting.peers == {conn}
        assert conn.partial_since is None  # an empty buffer is not a stall
        client.sendall(REQUEST)
        assert accepting.run_until(lambda: not accepting.peers)
        assert status_and_body(read_to_eof(client)) == (200, b'{"echo":"hello"}')


def test_partial_head_at_accept_registers_and_completes_later(accepting):
    head, rest = REQUEST[:30], REQUEST[30:]
    with accepting.connect() as client:
        client.sendall(head)
        conn = accepting.accept()
        assert accepting.registered == [conn.fd]
        assert conn.partial_since is not None  # the sweep applies
        assert not accepting.handler.requests
        client.sendall(rest)
        assert accepting.run_until(lambda: not accepting.peers)
        assert status_and_body(read_to_eof(client)) == (200, b'{"echo":"hello"}')


def test_peer_reset_before_accept_closes_quietly(accepting):
    before = open_fds()
    client = accepting.connect()
    client.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    client.close()  # RST while the connection waits in the backlog
    accepting.listener._accept()  # nothing escapes
    assert [conn.sock for conn in accepting.accepted] in ([], [None])
    assert not accepting.registered
    assert not accepting.peers
    assert not accepting.handler.requests
    assert open_fds() == before


def test_jsonl_first_line_at_accept_then_registered_in_order(accepting):
    with accepting.connect() as client:
        client.sendall(b'{"op":"a"}\n')
        conn = accepting.accept()
        assert read_lines(client, 1) == [b'{"n":1,"status":200}']
        assert accepting.registered == [conn.fd]  # the session stays open
        assert accepting.peers == {conn}
        client.sendall(b'{"op":"b"}\n{"op":"c"}\n')
        assert accepting.run_until(lambda: len(accepting.handler.requests) == 3)
        assert read_lines(client, 2) == [
            b'{"n":2,"status":200}', b'{"n":3,"status":200}'
        ]
        assert accepting.handler.requests == [
            b'{"op":"a"}', b'{"op":"b"}', b'{"op":"c"}'
        ]
        client.shutdown(socket.SHUT_WR)
        assert accepting.run_until(lambda: not accepting.peers)
        assert read_to_eof(client) == b""

"""Serving-layer fixtures and client helpers.

The server tests drive a real :class:`AggressionServer` bound to an
ephemeral port — inside ``asyncio.run`` with asyncio stream clients, or
on its own loop in a thread (:class:`ServerThread`) with plain blocking
sockets — no mocked transports, the same byte streams a curl/netcat
client would produce.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.sequential import SequentialEngine
from repro.serve.snapshot import payload_from_source


@pytest.fixture(scope="session")
def trained_payload() -> Dict[str, Any]:
    """One verified-shape snapshot payload from a short training run."""
    engine = SequentialEngine()
    tweets = AbusiveDatasetGenerator(n_tweets=600, seed=11).generate_list()
    engine.process_chunk(tweets)
    return payload_from_source(engine)


@pytest.fixture(scope="session")
def trained_payload_v2() -> Dict[str, Any]:
    """A second, distinguishable payload (longer training run)."""
    engine = SequentialEngine()
    tweets = AbusiveDatasetGenerator(n_tweets=1200, seed=23).generate_list()
    engine.process_chunk(tweets)
    return payload_from_source(engine)


async def http_request(
    port: int,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    method: str = "POST",
    host: str = "127.0.0.1",
) -> Tuple[int, Dict[str, str], Any]:
    """One-shot HTTP/1.1 request; returns (status, headers, parsed body)."""
    reader, writer = await asyncio.open_connection(host, port)
    payload = json.dumps(body or {}).encode("utf-8")
    request = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Content-Type: application/json\r\n"
        "\r\n"
    ).encode("ascii") + payload
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    head, _, body_bytes = raw.partition(b"\r\n\r\n")
    lines = head.decode("utf-8", "replace").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    text = body_bytes.decode("utf-8", "replace")
    if headers.get("content-type", "").startswith("application/json"):
        return status, headers, json.loads(text)
    return status, headers, text


class JsonlClient:
    """A persistent JSONL session against a running server."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "JsonlClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        assert self._writer is not None and self._reader is not None
        self._writer.write(
            (json.dumps(message, separators=(",", ":")) + "\n").encode()
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the session")
        return json.loads(line)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class ServerThread:
    """A real :class:`AggressionServer` on its own loop in a thread.

    The wire tests talk to it over plain blocking sockets from the test
    thread, so the client side shares no asyncio machinery with the
    server under test. ``call`` runs a function on the server's loop.
    """

    def __init__(self, server: Any) -> None:
        self.server = server
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(10.0), "server never started"
        return self

    def __exit__(self, *exc_info: Any) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.shutdown(), self.loop
        ).result(15.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10.0)
        assert not self._thread.is_alive(), "server loop never stopped"
        self.loop.close()

    @property
    def port(self) -> int:
        return self.server.port

    def call(self, fn: Any, *args: Any) -> Any:
        """Run ``fn(*args)`` on the server loop; return its result."""

        async def run() -> Any:
            return fn(*args)

        return asyncio.run_coroutine_threadsafe(run(), self.loop).result(10.0)


def stalling_hook() -> Tuple[Any, threading.Event]:
    """``(chaos_hook, release)``: the hook parks every scoring request
    until ``release.set()`` — callable from any thread, bound to no loop."""
    release = threading.Event()

    async def stall(endpoint: str) -> None:
        while not release.is_set():
            await asyncio.sleep(0.002)

    return stall, release


def wait_until(predicate: Any, timeout_s: float = 5.0) -> bool:
    """Poll ``predicate`` until it holds or the timeout passes."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return bool(predicate())


def raw_connect(port: int, timeout_s: float = 5.0) -> socket.socket:
    """A blocking client socket with a timeout on every call."""
    return socket.create_connection(("127.0.0.1", port), timeout=timeout_s)


def read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends until it closes; a reset after the
    reply (the server closed with our bytes unread) counts as EOF."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def read_lines(sock: socket.socket, n: int) -> list:
    """The next ``n`` newline-terminated replies of a JSONL session."""
    data = b""
    while data.count(b"\n") < n:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data.split(b"\n")[:n]


def exchange(
    port: int, request: bytes, half_close: bool = False,
    before_send: Optional[Callable[[socket.socket], None]] = None,
) -> bytes:
    """Send ``request`` on a fresh connection; return the full reply.
    ``before_send(sock)``, if given, runs between connect and send."""
    with raw_connect(port) as sock:
        if before_send is not None:
            before_send(sock)
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        return read_to_eof(sock)

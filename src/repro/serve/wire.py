"""The serving wire path: raw non-blocking sockets on the loop's selector.

One :class:`Connection` per accepted socket, driven by ``add_reader`` /
``add_writer`` callbacks — no stream reader/writer pair, no transport,
no Task per connection — and registered only when it has to wait::

    read at accept -> sniff -> frame -> route -> reply -> close  (HTTP)
                                 ^                  `--> next line (JSONL)

*read at accept*: one non-blocking ``recv`` before anything is
registered. A complete request already buffered is answered and closed
inside the accept callback; the socket never reaches the selector.
Anything else — nothing yet, a partial frame, an unsent tail, a request
that waits, a JSONL session that stays open — is registered and read on
readiness through the same callback; a reset closes quietly.
*sniff*: first non-blank byte ``{`` means JSONL, anything else HTTP.
*frame*: a JSONL line ends at ``\\n`` (the last one may end at EOF); an
HTTP head ends at the first blank line (CRLF or bare LF) and is followed
by ``Content-Length`` body bytes; bytes after the first HTTP request are
ignored. Frames are bounded — a head over :data:`MAX_HEAD_BYTES` is
answered 431, a declared body or a line over :data:`MAX_BODY_BYTES` 413,
from the declaration, before it is buffered — and a frame still partial
after :data:`FRAME_TIMEOUT_S` is closed by :func:`sweep_stalled`.
*route*: ``handler.handle_http(method, target, body)`` /
``handler.handle_jsonl(line)`` return a reply ``(status, body,
retry_after)``, sent from inside the read callback, or — for a request
that has to wait — a coroutine; only then is a Task created, and the
connection frames nothing more until it resolves, so replies keep their
order. *reply*: one ``send``; an unsent tail leaves through
``add_writer``, and while it exceeds :data:`HIGH_WATER_BYTES` the
connection is not read from.

Nothing here knows about models or admission. Needs a selector event
loop (the default on Linux and macOS); :class:`Listener` refuses a
proactor loop with a clear error.
"""

from __future__ import annotations

import asyncio
import errno
import json
import re
import socket
from typing import Any, Optional, Set, Tuple

from repro.obs.logconfig import get_logger

logger = get_logger("serve.wire")

MAX_HEAD_BYTES = 65536  # the old stream-reader limit: nothing new is refused
MAX_BODY_BYTES = 1 << 20  # HTTP body or JSONL line
FRAME_TIMEOUT_S = 10.0  # a partial frame older than this is swept
HIGH_WATER_BYTES = 65536  # unsent reply bytes above which reading stops
ACCEPT_BURST = 64  # accepts per readiness event, so reads interleave
ACCEPT_PAUSE_S = 1.0  # after EMFILE & co (asyncio's value)
_EXHAUSTED = (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM)

#: ``(status, body, retry_after)``: body is a dict (JSON) or a str (text
#: exposition), retry_after the ``Retry-After`` seconds or None.
Reply = Tuple[int, Any, Optional[int]]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}
_HEADS = {
    (status, is_text): (
        f"HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n"
        "Content-Length: "
    ).encode("latin-1")
    for status, reason in _REASONS.items()
    for is_text, content_type in (
        (False, "application/json"),
        (True, "text/plain; version=0.0.4; charset=utf-8"),
    )
}
_HEAD_END = re.compile(rb"\n\r?\n")
_CONTENT_LENGTH = re.compile(rb"(?i)\n[ \t]*content-length[ \t]*:([^\r\n]*)")
_to_json = json.JSONEncoder(separators=(",", ":")).encode
_INTERNAL_ERROR: Reply = (500, {"error": "internal error"}, None)


def http_reply(
    status: int, body: Any, retry_after: Optional[int] = None
) -> bytes:
    """Pre-encoded head for ``status``, then ``Content-Length``,
    ``Connection: close``, ``Retry-After`` if any, and the body."""
    is_text = isinstance(body, str)
    data = (body if is_text else _to_json(body)).encode("utf-8")
    tail = b"\r\nConnection: close\r\n"
    if retry_after is not None:
        tail += b"Retry-After: %d\r\n" % retry_after
    return b"%b%d%b\r\n%b" % (_HEADS[status, is_text], len(data), tail, data)


def jsonl_reply(
    status: int, body: Any, retry_after: Optional[int] = None
) -> bytes:
    """One reply line with ``status`` folded in (a body that has its own
    ``status`` key, like ``/health``, keeps it)."""
    if isinstance(body, str):
        body = {"text": body}
    if "status" not in body:
        body = {**body, "status": status}
    return _to_json(body).encode("utf-8") + b"\n"


class Connection:
    """One accepted socket; the module docstring draws its states."""

    __slots__ = (
        "sock", "fd", "loop", "handler", "peers", "buf", "scanned", "out",
        "jsonl", "busy", "last", "eof", "reading", "writing", "draining",
        "partial_since", "task",
    )

    def __init__(
        self, sock: socket.socket, loop: asyncio.AbstractEventLoop,
        handler: Any, peers: Set["Connection"],
    ) -> None:
        self.sock: Optional[socket.socket] = sock
        self.fd = sock.fileno()
        self.loop, self.handler, self.peers = loop, handler, peers
        self.buf = bytearray()  # received, not yet framed
        self.scanned = 0  # bytes of ``buf`` known to hold no frame end
        self.out = bytearray()  # encoded, not yet sent
        self.jsonl: Optional[bool] = None  # None until sniffed
        self.busy = False  # a waiting request owns the connection
        self.last = False  # close once ``out`` is flushed
        self.eof = False  # the peer sent FIN
        self.draining = False  # the next reply is the last (server drain)
        self.partial_since: Optional[float] = None  # for sweep_stalled
        self.task: Optional["asyncio.Task[None]"] = None
        self.reading, self.writing = False, False  # selector registrations
        peers.add(self)
        self._readable()  # read at accept: registered only if it must wait

    def _readable(self) -> None:
        try:
            data = self.sock.recv(65536)  # type: ignore[union-attr]
        except (BlockingIOError, InterruptedError):
            data = None  # nothing yet (at accept: register and wait)
        except OSError:  # reset by peer
            self.close()
            return
        if data is not None:
            self.buf += data
            self.eof = not data
        self._pump()

    def _writable(self) -> None:
        self._flush()
        self._pump()

    async def _answer_later(self, waiting: Any) -> None:
        """The one case that needs a Task: a request that has to wait."""
        try:
            reply = await waiting
            self.busy, self.task = False, None
            if self.sock is not None:
                self._reply(reply)
        except Exception:
            self._fail()
        else:
            self._pump()

    def _pump(self) -> None:
        """Answer every complete buffered frame, in order, until one has
        to wait or the unsent tail passes the high-water mark; then
        settle what comes next: read on, flush, or close."""
        drained = framed = False
        try:
            while self.sock is not None and not (
                self.busy or self.last or len(self.out) > HIGH_WATER_BYTES
            ):
                answer = self._next_answer()
                if answer is None:
                    drained = True
                    break
                framed = True
                if type(answer) is tuple:
                    self._reply(answer)
                else:
                    self.busy = True
                    self.task = self.loop.create_task(
                        self._answer_later(answer)
                    )
        except Exception:
            self._fail()
        if self.sock is None:
            return
        if drained and self.eof:
            self.last = True  # a partial frame at EOF is dropped
        if self.last or not (drained and self.buf):
            self.partial_since = None
        elif framed or self.partial_since is None:
            self.partial_since = self.loop.time()
        if self.last and not (self.busy or self.out):
            self.close()
            return
        want = not (self.eof or self.busy or self.last) and (
            len(self.out) <= HIGH_WATER_BYTES
        )
        if want != self.reading:
            self.reading = want
            if want:
                self.loop.add_reader(self.fd, self._readable)
            else:
                self.loop.remove_reader(self.fd)

    def _next_answer(self) -> Any:
        """Route the next complete frame; None when there is none yet."""
        buf = self.buf
        if self.jsonl is None:
            if buf[:1].isspace():
                del buf[:len(buf) - len(buf.lstrip())]
            if not buf:
                return None
            self.jsonl = buf[0] == 0x7B  # "{"
        if self.jsonl:
            end = buf.find(b"\n", self.scanned)
            if end < 0:
                self.scanned = len(buf)
                if len(buf) <= MAX_BODY_BYTES and not (self.eof and buf):
                    return None
                end = len(buf)  # oversized, or the final line at EOF
            if end > MAX_BODY_BYTES:
                return self._refuse(413, "body_too_large", "request line")
            line = bytes(buf[:end])
            del buf[:end + 1]
            self.scanned = 0
            return self.handler.handle_jsonl(line)
        match = _HEAD_END.search(buf, max(self.scanned - 2, 0))
        head_len = match.start() if match else len(buf)
        if head_len > MAX_HEAD_BYTES:
            return self._refuse(431, "head_too_large", "request head")
        if match is None:
            self.scanned = len(buf)
            return None
        head = bytes(buf[:head_len])
        try:
            method, target, _ = (
                head.split(b"\n", 1)[0].decode("latin-1").split(None, 2)
            )
        except ValueError:
            self.last = True
            return 400, {"error": "malformed request line"}, None
        declared = _CONTENT_LENGTH.findall(head)
        try:  # absent, negative or non-numeric all mean 0
            length = max(int(declared[-1].strip() or 0), 0) if declared else 0
        except ValueError:
            length = 0
        if length > MAX_BODY_BYTES:
            return self._refuse(413, "body_too_large", "request body")
        body_end = match.end() + length
        if len(buf) < body_end:
            return None
        self.last = True  # one request per connection; the rest is ignored
        return self.handler.handle_http(
            method, target, bytes(buf[match.end():body_end])
        )

    def _refuse(self, status: int, reason: str, what: str) -> Reply:
        self.handler.refused(reason)
        self.last = True
        limit = MAX_HEAD_BYTES if status == 431 else MAX_BODY_BYTES
        return status, {"error": f"{what} exceeds {limit} bytes"}, None

    def _reply(self, reply: Reply) -> None:
        self.last = self.last or self.draining
        self.out += (jsonl_reply if self.jsonl else http_reply)(*reply)
        if not self.writing:  # else the writer callback keeps the order
            self._flush()

    def _flush(self) -> None:
        """Send what the socket takes; the tail waits for ``add_writer``."""
        try:
            sent = self.sock.send(self.out)  # type: ignore[union-attr]
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:  # reset / broken pipe: nobody is listening
            self.close()
            return
        del self.out[:sent]
        if bool(self.out) != self.writing:
            self.writing = not self.writing
            if self.writing:
                self.loop.add_writer(self.fd, self._writable)
            else:
                self.loop.remove_writer(self.fd)

    def _fail(self) -> None:
        """A bug in a callback: answer 500 unless a reply is half sent,
        and always give the descriptor back."""
        logger.exception("connection callback failed; closing it")
        if self.sock is not None and not self.out:
            try:
                self._reply(_INTERNAL_ERROR)
            except Exception:  # pragma: no cover - defensive
                pass
        self.close()

    def close(self) -> None:
        """Unregister, close the descriptor, leave the connection set."""
        sock, self.sock = self.sock, None
        if sock is None:
            return
        self.peers.discard(self)
        if self.reading:
            self.loop.remove_reader(self.fd)
        if self.writing:
            self.loop.remove_writer(self.fd)
        sock.close()


def sweep_stalled(peers: Set[Connection], now: float, handler: Any) -> None:
    """Close every connection that has held a partial frame (bytes
    buffered, no complete request) for over :data:`FRAME_TIMEOUT_S` —
    the slow-loris bound. O(open connections) per call, no per-request
    timer; an idle session with an empty buffer is never touched."""
    cutoff = now - FRAME_TIMEOUT_S
    for conn in [c for c in peers if (c.partial_since or now) < cutoff]:
        handler.refused("stalled")
        conn.close()


class Listener:
    """The listening socket: one :class:`Connection` per accept."""

    def __init__(
        self, loop: asyncio.AbstractEventLoop, host: str, port: int,
        handler: Any, peers: Set[Connection],
    ) -> None:
        self.loop, self.handler, self.peers = loop, handler, peers
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        # create_server sets SO_REUSEADDR on POSIX.
        sock = socket.create_server((host, port), family=family, backlog=100)
        sock.setblocking(False)
        self.sock: Optional[socket.socket] = sock
        self.port: int = sock.getsockname()[1]
        try:
            loop.add_reader(sock, self._accept)
        except NotImplementedError:
            sock.close()
            raise RuntimeError(
                "repro.serve needs a selector event loop (loop.add_reader); "
                "on Windows use asyncio.WindowsSelectorEventLoopPolicy"
            ) from None

    def _accept(self) -> None:
        for _ in range(ACCEPT_BURST):
            try:
                sock, _ = self.sock.accept()  # type: ignore[union-attr]
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError as exc:
                if exc.errno not in _EXHAUSTED:
                    raise
                # Out of descriptors or buffers: stop listening for a
                # moment rather than spin on a listener that stays readable.
                logger.error(
                    "accept failed (%s); pausing %.1fs", exc, ACCEPT_PAUSE_S
                )
                self.loop.remove_reader(self.sock)
                self.loop.call_later(ACCEPT_PAUSE_S, self._resume)
                return
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            Connection(sock, self.loop, self.handler, self.peers)

    def _resume(self) -> None:
        if self.sock is not None:  # not closed during the pause
            self.loop.add_reader(self.sock, self._accept)

    def close(self) -> None:
        """Stop accepting; established connections are not touched."""
        sock, self.sock = self.sock, None
        if sock is not None:
            self.loop.remove_reader(sock)
            sock.close()

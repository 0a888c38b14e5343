"""The wire contract: every reply kind keeps its exact bytes.

``golden_wire.json`` holds what the asyncio-streams server of PR 17's
*parent commit* answered to a fixed script of raw-socket exchanges —
every status, both protocols, header order included. The server under
test must answer the same script byte-for-byte after masking only the
digits of ``elapsed_s`` / ``uptime_s`` / ``retry_after_s`` and
``Content-Length`` (which follows them). The model behind the wire is a
fixed stand-in, so the golden pins framing, routing, admission and
encoding and stays valid when training or features change;
``/metrics`` is asked first on a fresh server, before any timing has
been observed, so its exposition is deterministic too.

Regenerate (only when the *wire format* is meant to change) against
the commit whose bytes are the contract:
``PYTHONPATH=<that checkout>/src:. python tests/serve/test_wire_contract.py``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import socket
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.sequential import SequentialEngine
from repro.serve.server import AggressionServer
from repro.serve.snapshot import SnapshotStore, payload_from_source

from tests.serve.conftest import (
    ServerThread,
    exchange,
    raw_connect,
    read_to_eof,
    stalling_hook,
    wait_until,
)

GOLDEN_PATH = Path(__file__).with_name("golden_wire.json")

_MASKS = (
    (re.compile(rb'"(elapsed_s|uptime_s|retry_after_s)":[-+.0-9e]+'), rb'"\1":#'),
    (re.compile(rb"Content-Length: \d+"), b"Content-Length: #"),
)


def mask(reply: bytes) -> str:
    for pattern, replacement in _MASKS:
        reply = pattern.sub(replacement, reply)
    return reply.decode("latin-1")


class FixedModel:
    """Stands in for ``ServingModel``: same call shape, fixed answers."""

    def classify(self, tweet: Any, budget_s: Any = None) -> Dict[str, Any]:
        return {
            "tweet_id": tweet.tweet_id,
            "predicted": "abusive",
            "proba": {"normal": 0.25, "abusive": 0.625, "hateful": 0.125},
            "confidence": 0.625,
            "tier": "FULL",
            "degraded": False,
            "elapsed_s": 0.000125,
        }

    def explain(self, tweet: Any, budget_s: Any = None) -> Dict[str, Any]:
        result = self.classify(tweet, budget_s)
        result["matched_swear_words"] = ["idiot"]
        result["matched_bow_words"] = []
        result["decision_path"] = [
            {"feature": "n_swear", "threshold": 0.5, "value": 1.0,
             "went_left": False}
        ]
        result["contributions"] = []
        return result


def small_payload() -> Dict[str, Any]:
    engine = SequentialEngine()
    engine.process_chunk(
        AbusiveDatasetGenerator(n_tweets=200, seed=11).generate_list()
    )
    return payload_from_source(engine)


def http(method: str, target: str, body: bytes = b"", **headers: str) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: wire"]
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    lines.extend(f"{k.replace('_', '-')}: {v}" for k, v in headers.items())
    return "\r\n".join(lines).encode() + b"\r\n\r\n" + body


@contextlib.contextmanager
def _serve(root: Path, payload: Any, **kwargs: Any) -> Iterator[ServerThread]:
    """A served store with the stand-in model behind the wire."""
    store = SnapshotStore(root)
    if payload is not None:
        store.publish(payload)
    kwargs.setdefault("poll_interval_s", 30.0)
    kwargs.setdefault("drain_timeout_s", 3.0)  # a failed script ends soon
    with ServerThread(AggressionServer(store, port=0, **kwargs)) as thread:
        if payload is not None:
            thread.call(setattr, thread.server._current, "model", FixedModel())
        yield thread


def _jsonl(port: int, lines: list, tail: bytes = b"") -> bytes:
    """One session: all ``lines`` newline-terminated, then ``tail``
    (no newline) and a half-close; everything answered until EOF."""
    with raw_connect(port) as sock:
        sock.sendall(b"".join(line + b"\n" for line in lines) + tail)
        sock.shutdown(socket.SHUT_WR)
        return read_to_eof(sock)


def run_script(payload: Dict[str, Any], scratch: Path) -> Dict[str, str]:
    """The fixed script; returns ``{probe name: masked reply}``."""
    out: Dict[str, bytes] = {}
    classify = b'{"text":"you are horrible and stupid"}'

    with _serve(scratch / "main", payload) as server:
        port = server.port
        out["metrics_first"] = exchange(port, http("GET", "/metrics"))
        out["classify"] = exchange(port, http("POST", "/classify", classify))
        out["explain"] = exchange(port, http(
            "POST", "/explain",
            b'{"tweet":{"id_str":"42","text":"stupid idiot"}}',
            Content_Type="application/json",
        ))
        out["health"] = exchange(port, http("GET", "/health"))
        out["root_is_health"] = exchange(port, http("GET", "/"))
        out["ready"] = exchange(port, http("GET", "/ready"))
        out["query_stripped"] = exchange(port, http("GET", "/ready?verbose=1"))
        out["lf_only_head"] = exchange(
            port,
            b"POST /classify HTTP/1.1\nHost: wire\nContent-Length: "
            + str(len(classify)).encode() + b"\n\n" + classify,
        )
        out["bad_json"] = exchange(port, http("POST", "/classify", b"{nope"))
        out["bad_utf8"] = exchange(port, http("POST", "/classify", b'{"text":"\xff"}'))
        out["non_object"] = exchange(port, http("POST", "/classify", b"[1,2]"))
        out["missing_text"] = exchange(
            port, http("POST", "/classify", b'{"no_text":true}')
        )
        out["empty_text"] = exchange(port, http("POST", "/classify", b'{"text":""}'))
        out["tweet_not_object"] = exchange(
            port, http("POST", "/classify", b'{"tweet":7}')
        )
        out["malformed_request_line"] = exchange(port, b"GARBAGE\r\n\r\n")
        out["not_found"] = exchange(port, http("GET", "/nope"))
        out["not_found_post_body"] = exchange(port, http("POST", "/nope", b"{nope"))
        out["method_not_allowed"] = exchange(port, http("GET", "/classify"))
        out["bytes_after_request_ignored"] = exchange(
            port, http("GET", "/ready") + http("GET", "/health")
        )
        out["negative_content_length"] = exchange(
            port,
            b"POST /classify HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        )
        out["nonnumeric_content_length"] = exchange(
            port,
            b"POST /classify HTTP/1.1\r\ncontent-length : abc\r\n\r\n",
        )
        out["half_close_after_request"] = exchange(
            port, http("POST", "/classify", classify), half_close=True
        )
        out["deadline_ms"] = exchange(port, http(
            "POST", "/classify", b'{"text":"hurry","deadline_ms":0.001}'
        ))
        out["jsonl_session"] = _jsonl(port, [
            b'{"op":"classify","tweet":{"id_str":"7","text":"hello"}}',
            b'{"op":"explain","text":"stupid idiot"}',
            b'{"text":"op defaults to classify"}',
            b'{"op":"health"}',
            b'{"op":"ready"}',
            b'{"op":"bogus"}',
            b"this is not json",
            b"[1]",
            b'{"op":"classify"}',
            b'  {"op":"ready"}\r',
        ], tail=b'{"op":"classify","text":"no newline at eof"}')
        # Which replies count as requests (405 and the malformed
        # request line do not) is visible here.
        out["health_after"] = exchange(port, http("GET", "/health"))

    with _serve(scratch / "fresh", payload) as server:
        out["jsonl_metrics_first"] = _jsonl(server.port, [b'{"op":"metrics"}'])

    with _serve(scratch / "empty", None) as server:
        port = server.port
        out["no_snapshot_classify"] = exchange(
            port, http("POST", "/classify", classify)
        )
        out["no_snapshot_ready"] = exchange(port, http("GET", "/ready"))
        out["no_snapshot_health"] = exchange(port, http("GET", "/health"))
        out["no_snapshot_jsonl"] = _jsonl(
            port, [b'{"op":"classify","text":"hi"}', b'{"op":"ready"}']
        )

    with _serve(scratch / "breaker", payload) as server:
        port = server.port
        breaker = server.server.breakers["classify"]
        server.call(lambda: [breaker.record(True) for _ in range(64)])
        out["circuit_open"] = exchange(port, http("POST", "/classify", classify))
        out["circuit_open_jsonl"] = _jsonl(
            port, [b'{"op":"classify","text":"hi"}']
        )
        out["circuit_other_endpoint"] = exchange(
            port, http("POST", "/explain", classify)
        )

    # Overload: one slot, no waiting room, the slot's holder stalled.
    stall, release = stalling_hook()
    with _serve(
        scratch / "overload", payload,
        max_inflight=1, queue_capacity=0, chaos_hook=stall,
    ) as server:
        port = server.port
        admission = server.server.admission
        with raw_connect(port) as holder:
            holder.sendall(http("POST", "/classify", classify))
            assert wait_until(lambda: server.call(lambda: admission.inflight) == 1)
            out["overloaded"] = exchange(port, http("POST", "/classify", classify))
            out["overloaded_jsonl"] = _jsonl(
                port, [b'{"op":"explain","text":"hi"}', b'{"op":"health"}']
            )
            out["health_while_stalled"] = exchange(port, http("GET", "/health"))
            release.set()
            out["stalled_then_answered"] = read_to_eof(holder)

    # Draining: connections opened before the drain began are still
    # answered (503 for scoring) while a stalled request holds it open.
    stall, release = stalling_hook()
    with _serve(scratch / "drain", payload, chaos_hook=stall) as server:
        port = server.port
        admission = server.server.admission
        with raw_connect(port) as holder, raw_connect(port) as probe_http, \
                raw_connect(port) as probe_health, \
                raw_connect(port) as probe_jsonl:
            holder.sendall(http("POST", "/classify", classify))
            assert wait_until(lambda: server.call(lambda: admission.inflight) == 1)
            draining = asyncio.run_coroutine_threadsafe(
                server.server.shutdown(), server.loop
            )
            assert wait_until(lambda: server.call(lambda: server.server._draining))
            probe_http.sendall(http("POST", "/classify", classify))
            out["draining_classify"] = read_to_eof(probe_http)
            probe_health.sendall(http("GET", "/health"))
            out["draining_health"] = read_to_eof(probe_health)
            probe_jsonl.sendall(b'{"op":"classify","text":"late"}\n')
            out["draining_jsonl_closes"] = read_to_eof(probe_jsonl)
            release.set()
            out["draining_holder_finishes"] = read_to_eof(holder)
            draining.result(10.0)

    return {name: mask(reply) for name, reply in out.items()}


@pytest.fixture(scope="module")
def replies(tmp_path_factory) -> Dict[str, str]:
    return run_script(small_payload(), tmp_path_factory.mktemp("wire"))


GOLDEN: Dict[str, str] = (
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if GOLDEN_PATH.exists() else {}
)


def test_script_and_golden_cover_the_same_probes(replies):
    assert sorted(replies) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reply_is_byte_identical_to_the_parent(replies, name):
    assert replies[name] == GOLDEN[name]


def test_jsonl_session_answers_every_line_in_order(replies):
    lines = replies["jsonl_session"].splitlines()
    statuses = [json.loads(line.replace("#", "0"))["status"] for line in lines]
    assert statuses == [
        200, 200, 200, "serving", 200, 404, 400, 400, 400, 200, 200
    ]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        golden = run_script(small_payload(), Path(scratch))
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

"""AggressionServer: endpoints, readiness, admission, degradation."""

from __future__ import annotations

import asyncio

import pytest

from repro.obs.metrics import HistogramState
from repro.reliability.deadletter import PROBE_EVERY, CircuitBreaker
from repro.serve.admission import AdmissionController, RequestShed
from repro.serve.server import AggressionServer, tweet_from_payload
from repro.serve.snapshot import SnapshotStore

from tests.serve.conftest import JsonlClient, http_request


def _serve(tmp_path, payload=None, **kwargs):
    """Build a store (optionally pre-published) and an unstarted server."""
    store = SnapshotStore(tmp_path / "snaps")
    if payload is not None:
        store.publish(payload)
    kwargs.setdefault("poll_interval_s", 0.02)
    server = AggressionServer(store, port=0, **kwargs)
    return store, server


class TestHttpEndpoints:
    def test_classify_and_explain(self, tmp_path, trained_payload):
        async def main():
            _, server = _serve(tmp_path, trained_payload)
            await server.start()
            try:
                status, _, body = await http_request(
                    server.port, "/classify",
                    {"text": "you are horrible and stupid"},
                )
                assert status == 200
                assert body["predicted"] in body["proba"]
                assert body["snapshot_version"] == 1
                status, _, body = await http_request(
                    server.port, "/explain", {"text": "stupid idiot"}
                )
                assert status == 200
                assert "matched_swear_words" in body
                assert "decision_path" in body
            finally:
                await server.shutdown()

        asyncio.run(main())

    def test_health_metrics_and_errors(self, tmp_path, trained_payload):
        async def main():
            _, server = _serve(tmp_path, trained_payload)
            await server.start()
            try:
                status, _, body = await http_request(
                    server.port, "/health", {}
                )
                assert status == 200 and body["status"] == "serving"
                status, _, text = await http_request(
                    server.port, "/metrics", {}, method="GET"
                )
                assert status == 200
                assert "repro_requests_total" in text
                status, _, body = await http_request(
                    server.port, "/nope", {}
                )
                assert status == 404
                status, _, body = await http_request(
                    server.port, "/classify", {}, method="GET"
                )
                assert status == 405
                status, _, body = await http_request(
                    server.port, "/classify", {"no_text": True}
                )
                assert status == 400
            finally:
                await server.shutdown()

        asyncio.run(main())


class TestJsonlProtocol:
    def test_persistent_session(self, tmp_path, trained_payload):
        async def main():
            _, server = _serve(tmp_path, trained_payload)
            await server.start()
            client = await JsonlClient(server.port).connect()
            try:
                first = await client.request(
                    {"op": "classify", "tweet": {"text": "hello"}}
                )
                assert first["status"] == 200
                second = await client.request({"op": "health"})
                assert second["n_requests"] >= 1
                unknown = await client.request({"op": "bogus"})
                assert unknown["status"] == 404
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(main())


    def test_latency_sketch_is_sampled_and_the_exact_fields_are_not(
        self, tmp_path, trained_payload
    ):
        async def main():
            _, server = _serve(tmp_path, trained_payload)
            await server.start()
            client = await JsonlClient(server.port).connect()
            try:
                every = server.REQUEST_SKETCH_EVERY
                for _ in range(every - 1):
                    await client.request({"op": "health"})
                latency = server.metrics.histogram(
                    "request_seconds", endpoint="health"
                )
                assert latency.count == every - 1
                # The sketches are not fed yet.
                assert HistogramState.of(latency).quantile(0.99) is None
                await client.request({"op": "health"})
                assert latency.count == every
                p99 = HistogramState.of(latency).quantile(0.99)
                assert 0.0 < latency.min <= p99 <= latency.max
                assert latency.sum >= latency.max
            finally:
                await client.close()
                await server.shutdown()

        asyncio.run(main())


class TestReadiness:
    def test_503_until_first_snapshot_then_serves(
        self, tmp_path, trained_payload
    ):
        async def main():
            store, server = _serve(tmp_path, payload=None)
            await server.start()
            try:
                status, _, body = await http_request(
                    server.port, "/ready", {}
                )
                assert status == 503
                status, _, _ = await http_request(
                    server.port, "/classify", {"text": "hi"}
                )
                assert status == 503
                # health answers even while unready (liveness probe).
                status, _, body = await http_request(
                    server.port, "/health", {}
                )
                assert status == 200
                assert body["status"] == "waiting_for_snapshot"
                store.publish(trained_payload)
                await asyncio.sleep(0.1)  # poll loop picks it up
                status, _, _ = await http_request(
                    server.port, "/ready", {}
                )
                assert status == 200
                status, _, body = await http_request(
                    server.port, "/classify", {"text": "hi"}
                )
                assert status == 200
            finally:
                await server.shutdown()

        asyncio.run(main())


class TestAdmission:
    def test_overflow_gets_429_with_retry_after(
        self, tmp_path, trained_payload
    ):
        async def main():
            gate = asyncio.Event()

            async def stall(endpoint):
                await gate.wait()

            _, server = _serve(
                tmp_path, trained_payload,
                max_inflight=1, queue_capacity=0, chaos_hook=stall,
            )
            await server.start()
            try:
                blocked = asyncio.create_task(http_request(
                    server.port, "/classify", {"text": "slow"}
                ))
                await asyncio.sleep(0.05)
                status, headers, body = await http_request(
                    server.port, "/classify", {"text": "shed me"}
                )
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert body["retry_after_s"] > 0
                gate.set()
                status, _, _ = await blocked
                assert status == 200
            finally:
                gate.set()
                await server.shutdown()

        asyncio.run(main())

    def test_shed_counter_and_policy_label(
        self, tmp_path, trained_payload
    ):
        async def main():
            gate = asyncio.Event()

            async def stall(endpoint):
                await gate.wait()

            _, server = _serve(
                tmp_path, trained_payload,
                max_inflight=1, queue_capacity=0, chaos_hook=stall,
            )
            await server.start()
            try:
                blocked = asyncio.create_task(http_request(
                    server.port, "/classify", {"text": "slow"}
                ))
                await asyncio.sleep(0.05)
                await http_request(
                    server.port, "/classify", {"text": "shed"}
                )
                gate.set()
                await blocked
                counter = server.metrics.counter(
                    "requests_shed_total",
                    endpoint="classify", policy="drop-newest",
                )
                assert counter.value == 1.0
            finally:
                gate.set()
                await server.shutdown()

        asyncio.run(main())


class TestDeadlineDegradation:
    def test_tight_deadline_degrades_instead_of_erroring(
        self, tmp_path, trained_payload
    ):
        async def main():
            _, server = _serve(
                tmp_path, trained_payload, default_deadline_s=10.0
            )
            await server.start()
            try:
                # Teach the tier EWMAs a FULL-fidelity cost.
                for _ in range(3):
                    status, _, _ = await http_request(
                        server.port, "/classify",
                        {"text": "warm up the cost model"},
                    )
                    assert status == 200
                # An absurdly tight explicit budget must still answer
                # 200, just degraded to a cheaper tier.
                status, _, body = await http_request(
                    server.port, "/classify",
                    {"text": "answer me anyway", "deadline_ms": 0.0001},
                )
                assert status == 200
                assert body["degraded"] is True
                assert body["tier"] in ("NO_POS", "TEXT_ONLY")
            finally:
                await server.shutdown()

        asyncio.run(main())


class TestBreaker:
    def test_opens_after_failure_burst_and_probes(self):
        breaker = CircuitBreaker(0.5, min_events=4, window=16)
        for _ in range(8):
            breaker.record(True)
        assert breaker.is_open
        allowed = [breaker.allow() for _ in range(2 * PROBE_EVERY)]
        probe = [False] * (PROBE_EVERY - 1) + [True]
        assert allowed == probe + probe
        # Probe successes refill the window until it closes again.
        for _ in range(16):
            breaker.record(False)
        assert not breaker.is_open
        assert breaker.allow()

    def test_endpoint_circuit_returns_503(self, tmp_path, trained_payload):
        async def main():
            _, server = _serve(tmp_path, trained_payload)
            await server.start()
            try:
                # Force the classify breaker open by filling its window
                # with failures (a handler bug would do the same
                # organically).
                for _ in range(64):
                    server.breakers["classify"].record(True)
                statuses = []
                for _ in range(2):
                    status, headers, _ = await http_request(
                        server.port, "/classify", {"text": "hi"}
                    )
                    statuses.append(status)
                assert 503 in statuses
                # Other endpoints are unaffected.
                status, _, _ = await http_request(
                    server.port, "/explain", {"text": "hi"}
                )
                assert status == 200
            finally:
                await server.shutdown()

        asyncio.run(main())


class TestAdmissionController:
    def test_drop_oldest_sheds_waiter_not_arrival(self):
        async def main():
            controller = AdmissionController(
                max_inflight=1, queue_capacity=1, policy="drop-oldest"
            )
            await controller.acquire()  # occupies the slot
            waiter = asyncio.create_task(controller.acquire())
            await asyncio.sleep(0)
            assert len(controller._waiters) == 1
            # Room is full: the arrival evicts the queued waiter...
            arrival = asyncio.create_task(controller.acquire())
            with pytest.raises(RequestShed):
                await waiter
            # ...and takes its place; releasing the slot admits it.
            controller.release()
            await arrival
            assert controller.inflight == 1

        asyncio.run(main())

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            AdmissionController(policy="nope")


class TestTweetFromPayload:
    def test_bare_text_shorthand(self):
        tweet = tweet_from_payload({"text": "hello world"})
        assert tweet.text == "hello world"
        assert tweet.created_at > 0

    def test_full_tweet_object(self):
        tweet = tweet_from_payload({
            "tweet": {
                "id_str": "99", "text": "hi", "created_at": 123.0,
                "user": {"id_str": "7", "screen_name": "x"},
            }
        })
        assert tweet.tweet_id == "99"
        assert tweet.user.user_id == "7"

    def test_missing_text_raises(self):
        with pytest.raises(ValueError):
            tweet_from_payload({"tweet": {}})

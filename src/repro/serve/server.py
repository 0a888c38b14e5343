"""Fault-tolerant real-time serving: HTTP/JSONL on one port.

:class:`AggressionServer` answers "is this tweet aggressive?" while
the conversation is still live (the paper's red-handed goal) and is
built to keep answering through overload, corrupt state, and restarts:

* **Hot model swap, zero drops.** A background poll watches the
  :class:`~repro.serve.snapshot.SnapshotStore`; a new verified version
  swaps in between requests, while every in-flight request stays
  *pinned* to the snapshot it started on — the old version serves
  until its last pinned request completes. Corrupt or torn snapshots
  are refused (``snapshot_rejected_total`` + one WARNING + a flight
  dump) and the previous version keeps serving.
* **Degrade before erroring.** Per-request deadlines route through
  the PR 4 degrade ladder (``FULL → NO_POS → TEXT_ONLY``) via the
  model's per-tier cost EWMAs: deadline pressure costs feature
  fidelity, never a 5xx.
* **Shed before collapsing.** Admission control bounds concurrency
  and the waiting room with the shared shed-policy vocabulary;
  overflow is refused with ``429`` + ``Retry-After`` derived from the
  observed service rate. A windowed per-endpoint circuit breaker (the
  streaming one, with half-open probes) stops a faulting handler from
  burning the whole line.
* **Drain before exiting.** SIGTERM stops accepting, lets in-flight
  requests finish (bounded by ``drain_timeout_s``), then exits
  cleanly.

Wire format — both speak on the same port, sniffed per connection
from the first byte (:mod:`repro.serve.wire` frames and bounds them;
this module routes and scores — inside the socket's read callback
unless the request has to wait for admission):

* HTTP/1.1: ``GET /health | /ready | /metrics``,
  ``POST /classify | /explain`` with a Twitter-style JSON tweet (or
  ``{"text": ...}`` shorthand), one request per connection;
* JSONL: one JSON object per line
  (``{"op": "classify", "text": "..."}``), one JSON reply per line,
  connection persists — the firehose-friendly framing.

Observability: per-request latency histograms and request counters on
a :class:`~repro.obs.metrics.MetricsRegistry`, ``/metrics`` in the
Prometheus text format, burn-rate SLOs via
:func:`default_serve_slos`, and an optional
:class:`~repro.obs.recorder.FlightRecorder` that dumps its ring on
swap failures.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from dataclasses import dataclass
from typing import (
    Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple, Union,
)

from repro.data.tweet import Tweet
from repro.obs.export import prometheus_exposition
from repro.obs.logconfig import get_logger
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import SLO, SLOTracker
from repro.reliability.deadletter import CircuitBreaker
from repro.serve.admission import AdmissionController, RequestShed
from repro.serve import wire
from repro.serve.model import ServingModel
from repro.serve.snapshot import (
    SnapshotInfo,
    SnapshotIntegrityError,
    SnapshotStore,
)

logger = get_logger("serve.server")

#: Endpoint names (shared by dispatch, breakers, and metrics labels).
ENDPOINTS = ("classify", "explain", "health", "ready", "metrics")

#: Endpoints subject to admission control and deadline budgets.
SCORING_ENDPOINTS = ("classify", "explain")

#: What a handler returns: the reply, or the coroutine that will.
Answer = Union[wire.Reply, Awaitable[wire.Reply]]


def default_serve_slos(
    request_p99_s: float = 0.25,
    availability_budget: float = 0.01,
    shed_budget: float = 0.05,
) -> List[SLO]:
    """Burn-rate objectives for a serving process.

    Mirrors :func:`repro.obs.slo.default_slos` for the query path:
    availability (5xx fraction), request p99, and shed fraction.
    """
    return [
        SLO(
            name="serve_availability",
            kind="ratio",
            budget=availability_budget,
            bad=[("requests_error_total", {})],
            total=[("requests_total", {})],
        ),
        SLO(
            name="serve_latency_p99",
            kind="quantile",
            budget=0.1,
            family="request_seconds",
            quantile=0.99,
            threshold=request_p99_s,
        ),
        SLO(
            name="serve_shed_fraction",
            kind="ratio",
            budget=shed_budget,
            bad=[("requests_shed_total", {})],
            total=[("requests_total", {})],
        ),
    ]


def tweet_from_payload(payload: Dict[str, Any]) -> Tweet:
    """Build the tweet to score from a request payload.

    Accepts a full Twitter-style tweet object (under ``tweet`` or
    inline) or the ``{"text": "..."}`` shorthand, which synthesizes an
    anonymous unlabeled tweet stamped now.
    """
    obj = payload.get("tweet", payload)
    if not isinstance(obj, dict):
        raise ValueError("tweet must be a JSON object")
    if "text" not in obj:
        raise ValueError("request needs a 'text' field")
    # A wrongly typed field is the client's error (400), not a handler
    # failure: it must not reach the model, the error counter or the
    # breaker.
    if not isinstance(obj["text"], str):
        raise ValueError("'text' must be a string")
    if not isinstance(obj.get("user", {}), dict):
        raise ValueError("'user' must be a JSON object")
    if "created_at" not in obj:
        obj = dict(obj, created_at=time.time())
    try:
        tweet = Tweet.from_json(obj)
    except TypeError as exc:
        raise ValueError(f"malformed tweet field: {exc}") from None
    if not tweet.text:
        raise ValueError("request needs a non-empty 'text' field")
    return tweet


def _deadline_seconds(deadline_ms: Any) -> float:
    """A request's ``deadline_ms`` as seconds (a negative one is zero).

    Only a finite JSON number is a deadline; a string, list, object,
    ``null``, boolean, NaN or ±Infinity is the client's error (400).
    """
    if type(deadline_ms) in (int, float):
        try:
            ms = float(deadline_ms)
        except OverflowError:  # an integer past the float range
            ms = math.inf
        if math.isfinite(ms):
            return max(ms, 0.0) / 1000.0
    raise ValueError("'deadline_ms' must be a finite number")


@dataclass
class _LoadedSnapshot:
    """One verified snapshot resident in memory, with a pin count."""

    info: SnapshotInfo
    model: ServingModel
    pins: int = 0
    n_served: int = 0


def _json_object(data: bytes, what: str) -> Dict[str, Any]:
    payload = json.loads(data.decode("utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object")
    return payload


class AggressionServer:
    """Serves classify/explain/health/ready/metrics over HTTP + JSONL.

    Args:
        store: snapshot store to poll (its rejection counters are
            published on this server's registry).
        host, port: bind address; port 0 picks a free port
            (``self.port`` holds the real one after :meth:`start`).
        max_inflight, queue_capacity, shed_policy: admission control
            (policy names shared with the streaming shed policies).
        default_deadline_s: per-request latency budget when the
            request does not carry ``deadline_ms``; ``None`` disables
            budget-based degradation.
        poll_interval_s: snapshot poll cadence.
        drain_timeout_s: bound on the SIGTERM drain.
        metrics / telemetry / recorder / slos: observability wiring;
            a fresh registry and :func:`default_serve_slos` tracker by
            default.
        chaos_hook: optional ``async (endpoint) -> None`` awaited
            before scoring — the chaos suite's fault-injection seam
            (stalls, exceptions), never set in production.
    """

    #: Quantile-sketch sampling for ``request_seconds``, as
    #: ``AggressionDetectionPipeline.STAGE_SKETCH_EVERY`` does for the
    #: stage histograms: count/sum/min/max stay exact per response, the
    #: three P² sketches (and so ``serve_latency_p99``) ingest every 8th.
    REQUEST_SKETCH_EVERY = 8
    #: The SLO tracker samples the registry every this many responses.
    SLO_EVERY = 32

    def __init__(
        self,
        store: SnapshotStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        queue_capacity: int = 64,
        shed_policy: str = "drop-newest",
        default_deadline_s: Optional[float] = 0.05,
        poll_interval_s: float = 0.25,
        drain_timeout_s: float = 10.0,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[Any] = None,
        recorder: Optional[FlightRecorder] = None,
        slos: Optional[SLOTracker] = None,
        chaos_hook: Optional[Callable[[str], Awaitable[None]]] = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.default_deadline_s = default_deadline_s
        self.poll_interval_s = poll_interval_s
        self.drain_timeout_s = drain_timeout_s
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if store.metrics is None:
            store.metrics = self.metrics
        self.telemetry = telemetry
        self.recorder = recorder
        self.slo_tracker = (
            slos if slos is not None else SLOTracker(default_serve_slos())
        )
        self.chaos_hook = chaos_hook
        self.admission = AdmissionController(
            max_inflight=max_inflight,
            queue_capacity=queue_capacity,
            policy=shed_policy,
            metrics=self.metrics,
        )
        self.breakers: Dict[str, CircuitBreaker] = {
            endpoint: CircuitBreaker(
                max_failure_rate=0.5, min_events=8, window=64
            )
            for endpoint in SCORING_ENDPOINTS
        }
        self._current: Optional[_LoadedSnapshot] = None
        self._rejected_versions: set = set()
        self._listener: Optional[wire.Listener] = None
        self._poll_task: Optional[asyncio.Task] = None
        self._connections: Set[wire.Connection] = set()
        #: (endpoint, status) -> (requests_total child, request_seconds child)
        self._handles: Dict[Tuple[str, int], Tuple[Counter, Histogram]] = {}
        self._inflight_requests = 0
        self._draining = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._responses_since_slo = 0
        self.n_requests = 0
        self.n_swaps = 0
        self.started_at = time.time()
        self._m_degraded = self.metrics.counter("requests_degraded_total")
        self._m_errors = self.metrics.counter("requests_error_total")
        self._m_swaps = self.metrics.counter("snapshot_swaps_total")
        self._g_version = self.metrics.gauge("serving_snapshot_version")
        self._g_inflight = self.metrics.gauge("inflight_requests")

    # -- snapshot lifecycle ---------------------------------------------

    @property
    def snapshot_version(self) -> Optional[int]:
        return self._current.info.version if self._current else None

    @property
    def ready(self) -> bool:
        return self._current is not None and not self._draining

    def check_for_update(self) -> bool:
        """Poll the store once; swap if a newer version verifies.

        Returns True when a swap (or first load) happened. A corrupt
        latest version is refused *once* (counter, WARNING, flight
        dump) and remembered, so polling does not re-thrash it; the
        previous snapshot keeps serving.
        """
        latest = self.store.latest_version()
        if latest is None:
            return False
        current_version = self.snapshot_version
        if latest == current_version or latest in self._rejected_versions:
            return False
        try:
            info, payload = self.store.load_latest_verified()
            model = ServingModel(payload)
        except Exception as exc:
            self._swap_failure(latest, exc)
            return False
        if info.version == current_version:
            # The newest file was refused and fallback landed on what
            # is already serving: not a swap, but worth the black box.
            self._swap_failure(latest, None)
            return False
        previous = self._current
        self._current = _LoadedSnapshot(info=info, model=model)
        self.n_swaps += 1
        if previous is not None:
            self._m_swaps.inc()
        self._g_version.set(info.version)
        logger.info(
            "snapshot v%s -> v%d live (%d bytes, sha256 %s...)",
            previous.info.version if previous else "none",
            info.version, info.n_bytes, info.sha256[:12],
        )
        if self.telemetry is not None:
            self.telemetry.event(
                "snapshot_swap",
                version=info.version,
                previous=previous.info.version if previous else None,
            )
        if self.recorder is not None:
            self.recorder.event("snapshot_swap", version=info.version)
        return True

    def _swap_failure(
        self, version: int, exc: Optional[Exception]
    ) -> None:
        """Refuse a version once: counter, WARNING, flight dump."""
        self._rejected_versions.add(version)
        if exc is not None and not isinstance(exc, SnapshotIntegrityError):
            # Digest verified but the payload would not rebuild — count
            # it the same way (the store only counts digest/parse).
            self.store.n_rejected += 1
            self.metrics.counter("snapshot_rejected_total").inc()
            logger.warning(
                "snapshot v%d refused (rebuild failed: %s); continuing "
                "on v%s", version, exc, self.snapshot_version,
            )
        if self.recorder is not None:
            self.recorder.event(
                "snapshot_rejected",
                version=version,
                serving=self.snapshot_version,
            )
            self.recorder.auto_dump("snapshot_rejected")
        if self.telemetry is not None:
            self.telemetry.event(
                "snapshot_rejected",
                version=version,
                serving=self.snapshot_version,
            )

    async def _poll_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.poll_interval_s)
            wire.sweep_stalled(self._connections, loop.time(), self)
            try:
                self.check_for_update()
            except Exception:  # pragma: no cover - defensive
                logger.exception("snapshot poll failed; retrying")

    def _pin(self) -> _LoadedSnapshot:
        snap = self._current
        assert snap is not None
        snap.pins += 1
        return snap

    def _unpin(self, snap: _LoadedSnapshot) -> None:
        snap.pins -= 1
        snap.n_served += 1
        if snap.pins == 0 and snap is not self._current:
            logger.info(
                "snapshot v%d retired after %d requests",
                snap.info.version, snap.n_served,
            )
            if self.recorder is not None:
                self.recorder.event(
                    "snapshot_retired",
                    version=snap.info.version,
                    served=snap.n_served,
                )

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind, load the initial snapshot if one exists, start polling."""
        if self._shutdown_event is None:
            self._shutdown_event = asyncio.Event()
        self._listener = wire.Listener(
            asyncio.get_running_loop(), self.host, self.port,
            self, self._connections,
        )
        self.port = self._listener.port
        try:
            self.check_for_update()
        except Exception:  # pragma: no cover - defensive
            logger.exception("initial snapshot load failed; will poll")
        self._poll_task = asyncio.create_task(self._poll_loop())
        logger.info(
            "serving on %s:%d (snapshot %s, ready=%s)",
            self.host, self.port,
            f"v{self.snapshot_version}" if self._current else "none",
            self.ready,
        )
        return self.host, self.port

    def request_shutdown(self) -> None:
        """Signal-safe shutdown request (SIGTERM/SIGINT handler)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT to a graceful drain (best effort)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass

    async def serve_forever(self) -> None:
        """Start, serve until SIGTERM/SIGINT, drain, return."""
        # Handlers first: a SIGTERM that lands right after the "serving
        # on" line must drain, not kill.
        self._shutdown_event = asyncio.Event()
        self.install_signal_handlers()
        await self.start()
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, let waiting requests finish
        and unsent replies flush, then close every connection."""
        if self._draining:
            return
        self._draining = True
        logger.info(
            "drain: stopped accepting (%d in flight)",
            self._inflight_requests,
        )
        if self._listener is not None:
            self._listener.close()
        for conn in self._connections:
            conn.draining = True
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
        deadline = time.monotonic() + self.drain_timeout_s
        while time.monotonic() < deadline and (
            self._inflight_requests > 0
            or any(conn.out for conn in self._connections)
        ):
            await asyncio.sleep(0.01)
        leaked = self._inflight_requests
        for conn in list(self._connections):
            conn.close()
        if self.telemetry is not None:
            self.telemetry.snapshot(self.metrics, reason="drain")
            self.telemetry.event(
                "drain_complete",
                n_requests=self.n_requests,
                leaked_inflight=leaked,
            )
        if leaked:
            logger.warning(
                "drain timeout: %d requests abandoned after %.1fs",
                leaked, self.drain_timeout_s,
            )
        else:
            logger.info(
                "drain complete: %d requests served, 0 in flight",
                self.n_requests,
            )

    # -- routing (the wire handler protocol) ------------------------------

    def handle_http(self, method: str, target: str, body: bytes) -> Answer:
        """Route one framed HTTP request."""
        endpoint = target.split("?", 1)[0].strip("/") or "health"
        if endpoint not in ENDPOINTS:
            return self._count(
                "health", 404, {"error": f"no such endpoint /{endpoint}"}
            )
        if endpoint in SCORING_ENDPOINTS and method.upper() != "POST":
            return 405, {"error": f"/{endpoint} requires POST"}, None
        payload: Dict[str, Any] = {}
        if body:
            try:
                payload = _json_object(body, "request body")
            except (ValueError, UnicodeDecodeError) as exc:
                return self._count(
                    endpoint, 400, {"error": f"bad request: {exc}"}
                )
        return self._dispatch(endpoint, payload)

    def handle_jsonl(self, line: bytes) -> Answer:
        """Route one line of a JSONL session."""
        try:
            payload = _json_object(line, "request")
        except (ValueError, UnicodeDecodeError) as exc:
            return self._count(
                "classify", 400, {"error": f"bad request: {exc}"}
            )
        endpoint = payload.get("op", "classify")
        if endpoint not in ENDPOINTS:
            return self._count(
                "classify", 404, {"error": f"unknown op {endpoint!r}"}
            )
        return self._dispatch(endpoint, payload)

    def refused(self, reason: str) -> None:
        """A connection the wire layer refused (over a bound, stalled)."""
        self.metrics.counter("connections_refused_total", reason=reason).inc()

    # -- dispatch -------------------------------------------------------

    def _track_inflight(self, delta: int) -> None:
        self._inflight_requests += delta
        self._g_inflight.set(self._inflight_requests)

    def _dispatch(self, endpoint: str, payload: Dict[str, Any]) -> Answer:
        start = time.perf_counter()
        self._track_inflight(+1)
        waiting = False
        try:
            if endpoint == "health":
                return self._count(endpoint, 200, self._health(), start)
            if endpoint == "ready":
                return self._count(endpoint, *self._ready(), start)
            if endpoint == "metrics":
                return self._count(
                    endpoint, 200, prometheus_exposition(self.metrics), start
                )
            answer = self._score(endpoint, payload, start)
            waiting = not isinstance(answer, tuple)
            return answer
        finally:
            if not waiting:  # a waiting request leaves when it finishes
                self._track_inflight(-1)

    def _health(self) -> Dict[str, Any]:
        if self._draining:
            status = "draining"
        elif self._current is None:
            status = "waiting_for_snapshot"
        else:
            status = "serving"
        return {
            "status": status,
            "snapshot_version": self.snapshot_version,
            "n_requests": self.n_requests,
            "inflight": self._inflight_requests,
            "n_swaps": self.n_swaps,
            "snapshots_rejected": self.store.n_rejected,
            "uptime_s": time.time() - self.started_at,
        }

    def _ready(self) -> Tuple[int, Dict[str, Any]]:
        if self.ready:
            return 200, {
                "ready": True, "snapshot_version": self.snapshot_version
            }
        reason = "draining" if self._draining else "no verified snapshot"
        return 503, {"ready": False, "reason": reason}

    def _score(
        self, endpoint: str, payload: Dict[str, Any], start: float
    ) -> Answer:
        """Breaker → ready → admission. An uncontended request is scored
        right here, inside the read callback; one that has to wait
        (no free slot, or a chaos hook to await) comes back as the
        coroutine that will score it."""
        breaker = self.breakers[endpoint]
        if not breaker.allow():
            return self._back_off(
                endpoint, 503, "circuit open",
                self.admission.retry_after_s(), start,
            )
        if not self.ready:
            error = (
                "draining" if self._draining else "no verified snapshot loaded"
            )
            return self._count(endpoint, 503, {"error": error}, start)
        if self.chaos_hook is None and self.admission.try_acquire():
            return self._score_admitted(
                endpoint, payload, start, breaker, self._pin()
            )
        return self._score_waiting(endpoint, payload, start, breaker)

    async def _score_waiting(
        self,
        endpoint: str,
        payload: Dict[str, Any],
        start: float,
        breaker: CircuitBreaker,
    ) -> wire.Reply:
        try:
            try:
                await self.admission.acquire(endpoint)
            except RequestShed as shed:
                return self._back_off(
                    endpoint, 429, "overloaded", shed.retry_after_s, start
                )
            snap = self._pin()
            hook_error: Optional[Exception] = None
            try:
                if self.chaos_hook is not None:
                    await self.chaos_hook(endpoint)
            except Exception as exc:
                hook_error = exc
            return self._score_admitted(
                endpoint, payload, start, breaker, snap, hook_error
            )
        finally:
            self._track_inflight(-1)

    def _score_admitted(
        self,
        endpoint: str,
        payload: Dict[str, Any],
        start: float,
        breaker: CircuitBreaker,
        snap: _LoadedSnapshot,
        hook_error: Optional[Exception] = None,
    ) -> wire.Reply:
        """Score one admitted, pinned request; shared by the inline path
        and the waiting task (``hook_error``: what its chaos hook raised,
        handled like any other handler failure)."""
        failed = False
        try:
            if hook_error is not None:
                raise hook_error
            tweet = tweet_from_payload(payload)
            deadline_s = self.default_deadline_s
            if "deadline_ms" in payload:
                deadline_s = _deadline_seconds(payload["deadline_ms"])
            budget_s: Optional[float] = None
            if deadline_s is not None:
                # Queue wait already spent part of the budget; what is
                # left drives the tier choice. Never below a hair above
                # zero — an exhausted budget degrades to the cheapest
                # tier, it does not error.
                spent = time.perf_counter() - start
                budget_s = max(deadline_s - spent, 1e-4)
            if endpoint == "classify":
                result = snap.model.classify(tweet, budget_s=budget_s)
            else:
                result = snap.model.explain(tweet, budget_s=budget_s)
            if result.get("degraded"):
                self._m_degraded.inc()
            result["snapshot_version"] = snap.info.version
            return self._count(endpoint, 200, result, start)
        except ValueError as exc:
            return self._count(endpoint, 400, {"error": str(exc)}, start)
        except Exception as exc:
            failed = True
            self._m_errors.inc()
            logger.exception("%s handler failed", endpoint)
            if self.recorder is not None:
                self.recorder.event(
                    "handler_error", endpoint=endpoint, error=repr(exc)
                )
            return self._count(
                endpoint, 500, {"error": f"{type(exc).__name__}: {exc}"}, start
            )
        finally:
            elapsed = time.perf_counter() - start
            self._unpin(snap)
            self.admission.release()
            self.admission.note_service_time(elapsed)
            breaker.record(failed)

    def _back_off(
        self, endpoint: str, status: int, error: str, retry_s: float,
        start: float,
    ) -> wire.Reply:
        return self._count(
            endpoint, status, {"error": error, "retry_after_s": retry_s},
            start, max(1, math.ceil(retry_s)),
        )

    def _request_handles(
        self, endpoint: str, status: int
    ) -> Tuple[Counter, Histogram]:
        handles = self._handles[endpoint, status] = (
            self.metrics.counter(
                "requests_total", endpoint=endpoint, status=str(status)
            ),
            self.metrics.histogram(
                "request_seconds",
                sketch_every=self.REQUEST_SKETCH_EVERY,
                endpoint=endpoint,
            ),
        )
        return handles

    def _count(
        self,
        endpoint: str,
        status: int,
        body: Any,
        start: Optional[float] = None,
        retry_after: Optional[int] = None,
    ) -> wire.Reply:
        """Per-response bookkeeping (counters, latency, SLO cadence);
        returns the reply. ``start=None`` books a zero latency."""
        handles = self._handles.get((endpoint, status))
        if handles is None:
            handles = self._request_handles(endpoint, status)
        self.n_requests += 1
        handles[0].inc()
        handles[1].observe(
            time.perf_counter() - start if start is not None else 0.0
        )
        self._responses_since_slo += 1
        if (
            self.slo_tracker is not None
            and self._responses_since_slo >= self.SLO_EVERY
        ):
            self._responses_since_slo = 0
            self.slo_tracker.observe(self.metrics)
        return status, body, retry_after

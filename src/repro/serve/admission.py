"""Admission control and per-endpoint circuit breaking for serving.

Overload at the serving boundary is handled the same way the streaming
ingest path handles it (PR 4): a bounded waiting room with an explicit,
named shed policy — not an unbounded backlog that converts overload
into latency for everyone. The policy names are *shared* with
:data:`repro.reliability.overload.SHED_POLICIES` (``drop-oldest``,
``drop-newest``, ``sample``) so operators configure one vocabulary on
both sides of the snapshot store:

* ``drop-newest`` — the arriving request is shed (classic 429);
* ``drop-oldest`` — the longest-waiting request is shed in favor of
  the arrival (freshness wins; a real-time moderation query is worth
  less the longer it queues);
* ``sample`` — the arrival is admitted with probability ``keep``
  (seeded RNG), shed otherwise.

Shed requests receive a ``Retry-After`` hint derived from the observed
service-time EWMA and the current queue, so well-behaved clients back
off proportionally to actual pressure.

:class:`RollingBreaker` is the serving-side sibling of
:class:`repro.reliability.deadletter.CircuitBreaker`: same
record/check vocabulary, but over a *rolling window* with half-open
probing — a serving endpoint must be able to close again once the
fault clears, where the streaming breaker's job is to stop a doomed
batch run for good.

Custom policies register via :func:`register_admission_policy` (see
``docs/extending.md``).
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.reliability.overload import SHED_POLICIES

logger = get_logger("serve.admission")

#: Admission decision: (admit_arrival, shed_oldest_waiter).
AdmissionPolicy = Callable[["AdmissionController"], Tuple[bool, bool]]

#: Registered policy names → decision functions. Seeded with the
#: shared shed-policy vocabulary; extend via
#: :func:`register_admission_policy`.
ADMISSION_POLICY_REGISTRY: Dict[str, AdmissionPolicy] = {}


def register_admission_policy(name: str, policy: AdmissionPolicy) -> None:
    """Register a custom admission policy under ``name``.

    The policy is called with the controller when the waiting room is
    full and must return ``(admit_arrival, shed_oldest_waiter)``:
    ``(False, False)`` sheds the arrival, ``(True, True)`` sheds the
    oldest waiter and admits the arrival.
    """
    if not name:
        raise ValueError("policy name must be non-empty")
    ADMISSION_POLICY_REGISTRY[name] = policy


def _policy_drop_newest(
    controller: "AdmissionController",
) -> Tuple[bool, bool]:
    return False, False


def _policy_drop_oldest(
    controller: "AdmissionController",
) -> Tuple[bool, bool]:
    return True, True


def _policy_sample(controller: "AdmissionController") -> Tuple[bool, bool]:
    if controller._rng.random() < controller.sample_keep:
        return True, True
    return False, False


register_admission_policy("drop-newest", _policy_drop_newest)
register_admission_policy("drop-oldest", _policy_drop_oldest)
register_admission_policy("sample", _policy_sample)
assert set(SHED_POLICIES) <= set(ADMISSION_POLICY_REGISTRY), (
    "admission policies must cover the shared shed-policy names"
)


class RequestShed(Exception):
    """Request refused by admission control; carries a retry hint."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"overloaded; retry after {retry_after_s:.2f}s")
        self.retry_after_s = retry_after_s


class AdmissionController:
    """Bounded concurrency + bounded waiting room for one server.

    ``max_inflight`` requests execute concurrently; up to
    ``queue_capacity`` more wait. Beyond that the configured policy
    decides who is shed. All bookkeeping is single-threaded inside the
    event loop, so no locks are needed.
    """

    def __init__(
        self,
        max_inflight: int = 8,
        queue_capacity: int = 64,
        policy: str = "drop-newest",
        sample_keep: float = 0.5,
        seed: int = 29,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if policy not in ADMISSION_POLICY_REGISTRY:
            raise ValueError(
                f"unknown admission policy {policy!r} "
                f"(registered: {sorted(ADMISSION_POLICY_REGISTRY)})"
            )
        if not 0.0 <= sample_keep <= 1.0:
            raise ValueError("sample_keep must be in [0, 1]")
        self.max_inflight = max_inflight
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.sample_keep = sample_keep
        self.metrics = metrics
        self._rng = random.Random(seed)
        self._inflight = 0
        self._waiters: Deque["asyncio.Future[None]"] = deque()
        self._service_ewma_s = 0.01  # optimistic prior; learns fast
        self.n_admitted = 0
        self.n_shed = 0

    # -- introspection --------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def retry_after_s(self) -> float:
        """Backoff hint: expected time to drain the current line."""
        backlog = self._inflight + len(self._waiters) + 1
        estimate = self._service_ewma_s * backlog / self.max_inflight
        return max(0.05, estimate)

    def note_service_time(self, elapsed_s: float) -> None:
        """Feed one completed request's duration into the EWMA."""
        self._service_ewma_s = 0.2 * elapsed_s + 0.8 * self._service_ewma_s

    # -- admission ------------------------------------------------------

    def try_acquire(self) -> bool:
        """Admit one request only if that takes no waiting: a free slot
        and nobody queued ahead. The server's inline path."""
        if self._inflight < self.max_inflight and not self._waiters:
            self._inflight += 1
            self.n_admitted += 1
            return True
        return False

    async def acquire(self, endpoint: str = "") -> None:
        """Admit one request, waiting if the room allows; sheds with
        :class:`RequestShed` otherwise."""
        if self.try_acquire():
            return
        if len(self._waiters) >= self.queue_capacity:
            admit, shed_oldest = ADMISSION_POLICY_REGISTRY[self.policy](self)
            if shed_oldest:
                self._shed_oldest(endpoint)
            if not admit:
                self._count_shed(endpoint)
                raise RequestShed(self.retry_after_s())
        loop = asyncio.get_running_loop()
        waiter: "asyncio.Future[None]" = loop.create_future()
        self._waiters.append(waiter)
        self._publish_depth()
        try:
            await waiter
        except asyncio.CancelledError:
            # Client went away while queued; surrender the slot if one
            # was granted between cancellation and wakeup.
            if waiter in self._waiters:
                self._waiters.remove(waiter)
            elif not waiter.cancelled() and waiter.exception() is None:
                self.release()
            self._publish_depth()
            raise
        self.n_admitted += 1

    def release(self) -> None:
        """Finish one request, promoting the next waiter if any."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)
                self._publish_depth()
                return
        self._inflight = max(0, self._inflight - 1)

    def _shed_oldest(self, endpoint: str) -> None:
        while self._waiters:
            oldest = self._waiters.popleft()
            if not oldest.done():
                oldest.set_exception(RequestShed(self.retry_after_s()))
                self._count_shed(endpoint)
                self._publish_depth()
                return

    def _count_shed(self, endpoint: str) -> None:
        self.n_shed += 1
        if self.metrics is not None:
            self.metrics.counter(
                "requests_shed_total", endpoint=endpoint, policy=self.policy
            ).inc()

    def _publish_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("admission_queue_depth").set(
                len(self._waiters)
            )


class RollingBreaker:
    """Windowed circuit breaker with half-open probing.

    Records the last ``window`` outcomes per endpoint; opens when the
    windowed failure rate exceeds ``max_failure_rate`` (with at least
    ``min_events`` observed), and while open lets one probe request
    through every ``probe_every`` rejected calls. Probe successes
    refill the window with passes until the rate drops back under the
    threshold and the circuit closes.
    """

    def __init__(
        self,
        window: int = 64,
        max_failure_rate: float = 0.5,
        min_events: int = 8,
        probe_every: int = 8,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must be in (0, 1]")
        if min_events < 1 or probe_every < 1:
            raise ValueError("min_events and probe_every must be >= 1")
        self.window = window
        self.max_failure_rate = max_failure_rate
        self.min_events = min_events
        self.probe_every = probe_every
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._n_failed = 0  # == sum(self._outcomes), kept by record()
        self._rejected_since_probe = 0
        self.n_opens = 0
        self._was_open = False

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return self._n_failed / len(self._outcomes)

    @property
    def is_open(self) -> bool:
        open_now = (
            len(self._outcomes) >= self.min_events
            and self.failure_rate > self.max_failure_rate
        )
        if open_now and not self._was_open:
            self.n_opens += 1
        self._was_open = open_now
        return open_now

    def allow(self) -> bool:
        """Whether a request may proceed (True while closed or probing)."""
        if not self.is_open:
            return True
        self._rejected_since_probe += 1
        if self._rejected_since_probe >= self.probe_every:
            self._rejected_since_probe = 0
            return True  # half-open probe
        return False

    def record(self, failed: bool) -> None:
        """Record one request outcome into the rolling window."""
        if len(self._outcomes) == self.window:
            self._n_failed -= self._outcomes[0]  # about to be evicted
        self._outcomes.append(bool(failed))
        self._n_failed += bool(failed)

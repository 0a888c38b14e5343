"""Admission control for serving.

Overload at the serving boundary is handled the same way the streaming
ingest path handles it: a bounded waiting room with an explicit, named
shed policy — not an unbounded backlog that converts overload into
latency for everyone. The policies are the ingest queue's
(:data:`repro.reliability.overload.SHED_POLICIES`), decided by the same
function (:func:`repro.reliability.overload.evicts_oldest`), so
operators configure one vocabulary on both sides of the snapshot store.
When the waiting room is full:

* ``drop-newest`` — the arriving request is shed (classic 429);
* ``drop-oldest`` — the longest-waiting request is shed in favor of
  the arrival (freshness wins; a real-time moderation query is worth
  less the longer it queues);
* ``sample`` — the arrival takes the oldest waiter's place with
  probability ``SAMPLE_KEEP`` (seeded RNG) and is shed otherwise.

With no waiter to evict (a zero-size room) every policy sheds the
arrival.

Shed requests receive a ``Retry-After`` hint derived from the observed
service-time EWMA and the current queue, so well-behaved clients back
off proportionally to actual pressure. Each scoring endpoint's circuit
breaker is the streaming
:class:`~repro.reliability.deadletter.CircuitBreaker`, windowed and
probing (see :mod:`repro.serve.server`).
"""

from __future__ import annotations

import asyncio
import random
from collections import deque
from typing import Deque, Optional

from repro.obs.metrics import MetricsRegistry
from repro.reliability.overload import (
    SAMPLE_KEEP,
    SHED_POLICIES,
    SHED_SEED,
    evicts_oldest,
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
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if queue_capacity < 0:
            raise ValueError("queue_capacity must be >= 0")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r} "
                f"(known: {list(SHED_POLICIES)})"
            )
        self.max_inflight = max_inflight
        self.queue_capacity = queue_capacity
        self.policy = policy
        self.metrics = metrics
        self._rng = random.Random(SHED_SEED)
        self._inflight = 0
        self._waiters: Deque["asyncio.Future[None]"] = deque()
        self._service_ewma_s = 0.01  # optimistic prior; learns fast
        self.n_admitted = 0
        self.n_shed = 0

    # -- introspection --------------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

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
        # A full room evicts its oldest waiter if the policy says so and
        # there is one; otherwise the arrival is shed.
        if len(self._waiters) >= self.queue_capacity and not (
            evicts_oldest(self.policy, self._rng, SAMPLE_KEEP)
            and self._shed_oldest(endpoint)
        ):
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

    def _shed_oldest(self, endpoint: str) -> bool:
        """Shed the oldest live waiter; False when there is none."""
        while self._waiters:
            oldest = self._waiters.popleft()
            if not oldest.done():
                oldest.set_exception(RequestShed(self.retry_after_s()))
                self._count_shed(endpoint)
                self._publish_depth()
                return True
        return False

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


"""Admission primitives the inline serving path leans on."""

from __future__ import annotations

import asyncio
import random

from repro.serve.admission import AdmissionController, RollingBreaker


def test_breaker_running_count_equals_window_sum():
    """``failure_rate`` reads a running count; it must stay the sum of
    the window through fills and evictions."""
    rng = random.Random(17)
    breaker = RollingBreaker(window=64)
    for _ in range(1000):
        breaker.record(rng.random() < 0.4)
        assert breaker._n_failed == sum(breaker._outcomes)
        assert breaker.failure_rate == (
            sum(breaker._outcomes) / len(breaker._outcomes)
        )
    assert len(breaker._outcomes) == 64


def test_try_acquire_admits_only_without_waiting():
    async def main():
        controller = AdmissionController(max_inflight=1, queue_capacity=2)
        assert controller.try_acquire()
        assert not controller.try_acquire()  # no free slot
        waiter = asyncio.create_task(controller.acquire())
        await asyncio.sleep(0)
        controller.release()  # the slot goes to the queued waiter ...
        assert not controller.try_acquire()  # ... never past it
        await waiter
        controller.release()
        assert controller.inflight == 0 and controller.n_admitted == 2
        assert controller.try_acquire()

    asyncio.run(main())

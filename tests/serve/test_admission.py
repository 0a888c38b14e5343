"""Admission primitives the inline serving path leans on."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.reliability.deadletter import CircuitBreaker
from repro.reliability.overload import SHED_POLICIES
from repro.serve.admission import AdmissionController, RequestShed


def test_breaker_running_count_equals_window_sum():
    """``failure_rate`` reads a running count; it must stay the sum of
    the window through fills and evictions."""
    rng = random.Random(17)
    breaker = CircuitBreaker(0.5, min_events=8, window=64)
    for _ in range(1000):
        breaker.record(rng.random() < 0.4)
        assert breaker.n_failed == sum(breaker._outcomes)
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


@pytest.mark.parametrize("policy", SHED_POLICIES)
def test_zero_capacity_waiting_room_holds_no_one(policy):
    """With no waiting room there is no oldest waiter to evict, so
    every policy sheds the arrival."""

    async def main():
        controller = AdmissionController(
            max_inflight=1, queue_capacity=0, policy=policy
        )
        await controller.acquire()  # the only slot is held
        arrivals = [
            asyncio.create_task(controller.acquire()) for _ in range(3)
        ]
        for _ in range(3):
            await asyncio.sleep(0)
        depth = len(controller._waiters)
        for task in arrivals:
            task.cancel()
        results = await asyncio.gather(*arrivals, return_exceptions=True)
        assert depth == 0
        assert all(isinstance(r, RequestShed) for r in results)
        assert controller.n_shed == 3

    asyncio.run(main())

"""Seeded overload decisions, pinned byte-for-byte.

``golden_overload.json`` records what the overload primitives decided
on fixed, seeded inputs:

* the bounded ingest queue, per shed policy (``sample`` at two
  seed/keep pairs): the shed and drained tweet ids of a mixed
  labeled/unlabeled stream with interleaved drains, the counters, and
  a digest of the serialized queue (pending backlog and RNG state);
* the serving admission controller, per policy with a non-empty
  waiting room: which waiters are shed and admitted, step by step;
* the serving endpoint breaker (as :class:`AggressionServer` builds
  it) and the stream's cumulative poison breaker: the breaker's
  answers after each of 1 000 seeded outcomes.

Any refactor of shedding, admission or breaking must reproduce these
decisions exactly — they are what seeded runs and resumed checkpoints
depend on. Regenerate only when a decision is *meant* to change:
``PYTHONPATH=src:. python tests/reliability/test_golden_overload.py``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.data.tweet import Tweet
from repro.reliability.deadletter import CircuitBreaker, CircuitOpenError
from repro.reliability.overload import SHED_POLICIES, BoundedIngestQueue
from repro.serve.admission import AdmissionController, RequestShed
from repro.serve.server import AggressionServer
from repro.serve.snapshot import SnapshotStore

GOLDEN_PATH = Path(__file__).with_name("golden_overload.json")

#: (policy, sample_keep, seed) runs of the ingest queue.
QUEUE_RUNS = [(policy, 0.5, 29) for policy in SHED_POLICIES] + [
    ("sample", 0.3, 7)
]

#: Failure probability per phase of the breaker outcome stream.
BREAKER_PHASES = (
    (300, 0.03), (150, 0.8), (250, 0.05), (150, 0.6), (150, 0.0)
)


class _ShedLog:
    """Telemetry stand-in: keeps the id of every shed tweet, in order."""

    def __init__(self) -> None:
        self.ids: List[str] = []

    def event(self, kind: str, **fields: Any) -> None:
        if kind == "shed":
            self.ids.append(fields["tweet_id"])


def _stream(n: int = 300) -> List[Tweet]:
    """Mixed stream: ~15% labeled, plus a labeled-only run of 20 that
    fills the queue with tweets no policy may shed."""
    rng = random.Random(5)
    tweets = []
    for i in range(n):
        labeled = 140 <= i < 160 or rng.random() < 0.15
        tweets.append(Tweet(
            tweet_id=f"t{i:03d}", text=f"tweet {i}", created_at=float(i),
            label="normal" if labeled else None,
        ))
    return tweets


def queue_trace(policy: str, keep: float, seed: int) -> Dict[str, Any]:
    log = _ShedLog()
    queue = BoundedIngestQueue(
        capacity=12, policy=policy, sample_keep=keep, seed=seed,
        telemetry=log,
    )
    drained: List[str] = []
    for i, tweet in enumerate(_stream()):
        queue.offer(tweet)
        if i % 17 == 16:
            drained += [t.tweet_id for t in queue.drain(5)]
    # The digest covers the pending backlog and the RNG state a
    # checkpoint would carry; drain afterwards.
    state = json.dumps(queue.to_dict(), sort_keys=True).encode()
    digest = hashlib.sha256(state).hexdigest()
    drained += [t.tweet_id for t in queue.drain(len(queue))]
    return {
        "shed": ",".join(log.ids),
        "drained": ",".join(drained),
        "counters": queue.as_counters(),
        "state_sha256": digest,
    }


async def _admission_trace(policy: str, capacity: int) -> Dict[str, Any]:
    controller = AdmissionController(
        max_inflight=1, queue_capacity=capacity, policy=policy
    )
    await controller.acquire()  # the held slot
    tasks: List["asyncio.Task[None]"] = []
    seen: set = set()
    steps = []
    for i in range(14):
        if i % 4 == 3:
            controller.release()  # promote the oldest waiter
        tasks.append(asyncio.create_task(controller.acquire("classify")))
        for _ in range(3):
            await asyncio.sleep(0)
        shed, admitted = [], []
        for index, task in enumerate(tasks):
            if index in seen or not task.done():
                continue
            seen.add(index)
            if isinstance(task.exception(), RequestShed):
                shed.append(index)
            else:
                admitted.append(index)
        steps.append(f"shed {shed} admitted {admitted}")
    for task in tasks:
        if not task.done():
            task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    return {
        "steps": steps,
        "n_shed": controller.n_shed,
        "n_admitted": controller.n_admitted,
    }


def admission_trace(policy: str, capacity: int) -> Dict[str, Any]:
    return asyncio.run(_admission_trace(policy, capacity))


def _outcomes() -> List[bool]:
    rng = random.Random(13)
    return [
        rng.random() < rate for n, rate in BREAKER_PHASES for _ in range(n)
    ]


def _bits(values: List[bool]) -> str:
    return "".join("1" if v else "0" for v in values)


def serving_breaker_trace(scratch: Path) -> Dict[str, str]:
    """The breaker a scoring endpoint gets, as the server builds it."""
    server = AggressionServer(SnapshotStore(scratch / "snaps"))
    breaker = server.breakers["classify"]
    allowed, opened, rates = [], [], []
    for failed in _outcomes():
        breaker.record(failed)
        allowed.append(breaker.allow())
        opened.append(breaker.is_open)
        rates.append(repr(breaker.failure_rate))
    return {
        "allow": _bits(allowed),
        "is_open": _bits(opened),
        "failure_rate": ",".join(rates),
    }


def cumulative_breaker_trace() -> Dict[str, str]:
    breaker = CircuitBreaker(0.05, 100)
    opened, raised = [], []
    for failed in _outcomes():
        breaker.record(failed)
        opened.append(breaker.is_open)
        try:
            breaker.check()
            raised.append(False)
        except CircuitOpenError:
            raised.append(True)
    return {"is_open": _bits(opened), "check_raises": _bits(raised)}


def _queue_key(policy: str, keep: float, seed: int) -> str:
    return f"{policy}/keep={keep}/seed={seed}"


def run_all(scratch: Path) -> Dict[str, Any]:
    return {
        "queue": {
            _queue_key(*run): queue_trace(*run) for run in QUEUE_RUNS
        },
        "admission": {
            f"{policy}/capacity={capacity}": admission_trace(policy, capacity)
            for policy in SHED_POLICIES
            for capacity in (1, 3)
        },
        "serving_breaker": serving_breaker_trace(scratch),
        "cumulative_breaker": cumulative_breaker_trace(),
    }


GOLDEN: Dict[str, Any] = (
    json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    if GOLDEN_PATH.exists() else {}
)


@pytest.mark.parametrize("run", QUEUE_RUNS, ids=lambda r: _queue_key(*r))
def test_ingest_queue_sheds_and_drains_as_recorded(run):
    assert queue_trace(*run) == GOLDEN["queue"][_queue_key(*run)]


@pytest.mark.parametrize("policy", SHED_POLICIES)
@pytest.mark.parametrize("capacity", [1, 3])
def test_admission_sheds_and_admits_as_recorded(policy, capacity):
    key = f"{policy}/capacity={capacity}"
    assert admission_trace(policy, capacity) == GOLDEN["admission"][key]


def test_serving_breaker_answers_as_recorded(tmp_path):
    trace = serving_breaker_trace(tmp_path)
    golden = GOLDEN["serving_breaker"]
    for field in ("allow", "is_open", "failure_rate"):
        assert trace[field] == golden[field], field
    # The trace exercises every state: closed, open, probing, reclosed.
    assert "01" in golden["is_open"] and "10" in golden["is_open"]
    assert "0" in golden["allow"]


def test_cumulative_breaker_answers_as_recorded():
    trace = cumulative_breaker_trace()
    assert trace == GOLDEN["cumulative_breaker"]
    assert "01" in trace["is_open"]  # it does trip on this stream


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        golden = run_all(Path(scratch))
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )

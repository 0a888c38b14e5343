"""Deterministic fault injection: failing runners and corrupted streams.

Fault tolerance that is never exercised is fault tolerance that does
not exist. This module makes faults *reproducible*:

* :class:`FaultInjector` + :class:`FaultInjectingRunner` wrap any
  partition :class:`~repro.engine.runners.Runner` and fail chosen
  partitions on chosen attempts (explicit schedule) or at a seeded
  random rate, raising
  :class:`~repro.engine.runners.TransientWorkerError` (retryable) or a
  fatal error on demand;
* :func:`corrupting_stream` replaces a seeded fraction of a tweet
  stream with structurally corrupt records (``None`` text, NaN
  counters, absurd timestamps) — exactly the garbage
  :func:`~repro.reliability.deadletter.validate_tweet` quarantines;
* :func:`corruption_mask` exposes the same seeded decisions, so tests
  can reconstruct the clean subset and assert that a supervised run
  over the corrupted stream matches a fault-free run over the clean
  tweets.

Everything is seeded; the same seed yields the same faults, which is
what lets the chaos suite assert exact metric equivalence.
"""

from __future__ import annotations

import copy
import os
import random
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.data.tweet import Tweet
from repro.engine.runners import Runner, RunReport, Task, TransientWorkerError

#: Supported corruption kinds, in the cycle order used by default.
CORRUPTION_KINDS = ("none_text", "nan_counts", "absurd_timestamp")

#: Supported injected fault kinds. ``error`` raises inside the task
#: (transient or fatal per the injector flag); ``worker_hang`` sleeps a
#: pool worker past any reasonable deadline; ``worker_kill`` terminates
#: the worker process outright (driving the pool-rebuild path);
#: ``slow_partition`` delays the task but lets it finish — the
#: straggler that speculation is for.
FAULT_KINDS = ("error", "worker_hang", "worker_kill", "slow_partition")


class FaultInjector:
    """Seeded schedule of partition-task failures.

    Failures can be declared two ways (combinable):

    * ``schedule`` — explicit map of run-call index to the task
      positions that must fail on that call. Call indices count every
      invocation of the wrapped runner, so retries advance the index.
      A retry call carries only the partitions that failed, so a lone
      failed partition sits at position 0 on it: ``{0: [2], 1: [0]}``
      fails partition 2 on the first attempt *and* on the first retry,
      succeeding on the third.
    * ``rate`` — each (call, partition) pair fails independently with
      this probability, drawn from a ``seed``-ed RNG.

    ``transient`` picks the raised type: :class:`TransientWorkerError`
    (default, retryable) or a plain ``RuntimeError`` (classified fatal).

    ``kind`` selects *how* the chosen task misbehaves (one of
    :data:`FAULT_KINDS`): the default ``error`` raises immediately;
    ``worker_hang`` sleeps ``hang_s`` first (stalling a pool worker past
    its deadline); ``worker_kill`` terminates the worker process;
    ``slow_partition`` sleeps ``slow_s`` and then runs the task to
    completion. The process-level kinds only make sense under a process
    runner — on serial/thread runners (same PID as the driver) they
    downgrade to raising :class:`TransientWorkerError`, because killing
    or hanging the driver would take the test process down with it.
    """

    def __init__(
        self,
        schedule: Optional[Mapping[int, Sequence[int]]] = None,
        rate: float = 0.0,
        seed: int = 0,
        transient: bool = True,
        kind: str = "error",
        hang_s: float = 30.0,
        slow_s: float = 0.25,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if hang_s <= 0 or slow_s <= 0:
            raise ValueError("hang_s/slow_s must be positive")
        self.schedule: Dict[int, Tuple[int, ...]] = {
            int(call): tuple(partitions)
            for call, partitions in (schedule or {}).items()
        }
        self.rate = rate
        self.seed = seed
        self.transient = transient
        self.kind = kind
        self.hang_s = hang_s
        self.slow_s = slow_s
        self._rng = random.Random(seed)
        self.n_injected = 0

    def should_fail(self, call_index: int, partition_index: int) -> bool:
        """Decide (deterministically) whether this task must fail.

        Must be called exactly once per (call, partition) in execution
        order for the ``rate`` mode to stay reproducible.
        """
        if partition_index in self.schedule.get(call_index, ()):
            return True
        return self.rate > 0.0 and self._rng.random() < self.rate

    def build_action(
        self, call_index: int, partition_index: int
    ) -> "_FaultAction":
        """The picklable misbehaviour an injected failure performs."""
        return _FaultAction(
            kind=self.kind,
            message=(
                f"injected {self.kind}: call {call_index}, "
                f"partition {partition_index}"
            ),
            transient=self.transient,
            hang_s=self.hang_s,
            slow_s=self.slow_s,
            driver_pid=os.getpid(),
        )


@dataclass
class _FaultAction:
    """One injected misbehaviour, decided driver-side, applied task-side.

    ``driver_pid`` is captured at build time: the process-level kinds
    (``worker_kill``/``worker_hang``) check it before acting, so a task
    executed in the driver's own process (the serial runner, or a
    fork-sharing edge case) degrades to a transient error instead of
    killing or stalling the driver.
    """

    kind: str
    message: str
    transient: bool
    hang_s: float
    slow_s: float
    driver_pid: int

    def apply(self) -> bool:
        """Misbehave; returns whether the task should still run."""
        if self.kind == "slow_partition":
            time.sleep(self.slow_s)
            return True
        if self.kind == "worker_kill":
            if os.getpid() != self.driver_pid:
                os._exit(17)
            raise TransientWorkerError(self.message + " (in-driver downgrade)")
        if self.kind == "worker_hang":
            if os.getpid() != self.driver_pid:
                time.sleep(self.hang_s)
                # A hang that outlives every deadline still terminates
                # eventually — as a retryable failure, never a result,
                # so a late-waking worker cannot inject duplicates.
                raise TransientWorkerError(self.message + " (hang elapsed)")
            raise TransientWorkerError(self.message + " (in-driver downgrade)")
        if self.transient:
            raise TransientWorkerError(self.message)
        raise RuntimeError(self.message)


class _InjectedTask:
    """Picklable task wrapper that misbehaves instead of (or before)
    running.

    The decision is made driver-side (so the injector RNG is consumed
    deterministically regardless of runner kind); the wrapper carries
    only the verdict (``None``: run the task untouched) across the
    process boundary.
    """

    def __init__(self, task: Task, action: Optional[_FaultAction]) -> None:
        self.task = task
        self.action = action

    def __call__(self) -> object:
        if self.action is not None:
            self.action.apply()
        return self.task()


class FaultInjectingRunner(Runner):
    """Wraps a runner, injecting scheduled failures before delegation.

    Owns nothing: closing it closes the inner runner only if
    ``owns_inner`` is set (default true, matching how it is usually
    constructed inline).
    """

    def __init__(
        self,
        inner: Runner,
        injector: FaultInjector,
        owns_inner: bool = True,
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.owns_inner = owns_inner
        self.n_calls = 0

    @property
    def needs_pickled_tasks(self) -> bool:
        """Transport choice follows the wrapped runner, not the wrapper."""
        return self.inner.needs_pickled_tasks

    def _wrap(self, tasks: Sequence[Task]) -> List[Task]:
        """Consume one call index and wrap the chosen tasks.

        Every delegated execution, including engine-level retries,
        advances the call index, so a schedule keyed on call indices
        addresses attempts, not just batches.
        """
        call_index = self.n_calls
        self.n_calls += 1
        wrapped: List[Task] = []
        for partition_index, task in enumerate(tasks):
            action: Optional[_FaultAction] = None
            if self.injector.should_fail(call_index, partition_index):
                self.injector.n_injected += 1
                action = self.injector.build_action(
                    call_index, partition_index
                )
            wrapped.append(_InjectedTask(task, action))
        return wrapped

    def run_with_deadline(
        self,
        tasks: Sequence[Task],
        deadline_s: Optional[float] = None,
        speculate_after: Optional[float] = None,
    ) -> RunReport:
        return self.inner.run_with_deadline(
            self._wrap(tasks),
            deadline_s=deadline_s,
            speculate_after=speculate_after,
        )

    def evict_broadcast(self, key: str) -> None:
        self.inner.evict_broadcast(key)

    def close(self) -> None:
        if self.owns_inner:
            self.inner.close()


def corruption_mask(n: int, rate: float, seed: int = 7) -> List[bool]:
    """The per-tweet corrupt/clean decisions :func:`corrupting_stream`
    makes for an ``n``-tweet stream at this rate and seed.

    Tests use this to split a stream into its corrupted and clean
    subsets without materializing the corrupted records.
    """
    rng = random.Random(seed)
    return [rng.random() < rate for _ in range(n)]


def corrupting_stream(
    tweets: Iterable[Tweet],
    rate: float = 0.01,
    seed: int = 7,
    kinds: Sequence[str] = CORRUPTION_KINDS,
) -> Iterator[Tweet]:
    """Replace a seeded fraction of a stream with corrupt tweets.

    Each tweet is independently replaced with probability ``rate``; the
    replacement cycles through ``kinds`` deterministically. Corrupted
    tweets keep their id (so quarantine records stay attributable) but
    carry exactly the malformation named by the kind:

    * ``none_text`` — ``text`` is ``None``;
    * ``nan_counts`` — user counters are NaN;
    * ``absurd_timestamp`` — ``created_at`` far outside any plausible
      epoch window.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    for kind in kinds:
        if kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {kind!r}; "
                f"expected one of {CORRUPTION_KINDS}"
            )
    rng = random.Random(seed)
    n_corrupted = 0
    for tweet in tweets:
        if rng.random() < rate:
            yield corrupt_tweet(tweet, kinds[n_corrupted % len(kinds)])
            n_corrupted += 1
        else:
            yield tweet


def corrupt_tweet(tweet: Tweet, kind: str) -> Tweet:
    """A corrupted copy of ``tweet`` (the original is untouched)."""
    if kind == "none_text":
        return replace(tweet, text=None)  # type: ignore[arg-type]
    if kind == "nan_counts":
        user = copy.copy(tweet.user)
        user.followers_count = float("nan")  # type: ignore[assignment]
        user.statuses_count = float("nan")  # type: ignore[assignment]
        return replace(tweet, user=user)
    if kind == "absurd_timestamp":
        return replace(tweet, created_at=1.0e18)
    raise ValueError(
        f"unknown corruption kind {kind!r}; expected one of {CORRUPTION_KINDS}"
    )

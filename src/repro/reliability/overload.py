"""Overload robustness: bounded ingest, load shedding, adaptive degradation.

The paper's premise is *real-time* detection at Twitter-firehose rates,
and aggression arrives in bursts around events (Chatzakou et al., *Mean
Birds*, 2017). When the offered rate exceeds engine capacity, a system
with an unbounded input buffer does not fail — it silently falls behind,
which for an alerting pipeline is indistinguishable from failing. This
module defines the explicit overload behavior instead:

* :class:`BoundedIngestQueue` — a capacity-bounded ingest buffer with
  backpressure watermarks and explicit, metric-counted shedding
  policies (``drop-oldest``, ``drop-newest``, ``sample``).
  Labeled tweets are always retained (unlabeled traffic is shed first),
  so model training never starves during a burst. The policy decision
  itself, :func:`evicts_oldest`, is shared with serving admission.
* :func:`serve_backlog` — the one simulated single server that drains
  such a queue in simulated time; the supervisor's closed-loop run and
  the overload and latency benches all call it.
* :class:`OverloadController` — watches queue depth and per-batch
  timings (``batch_seconds`` from the :mod:`repro.obs` registry) and
  adapts: it shrinks the engine's batch size within bounds, and when
  that is not enough switches the feature pipeline down the degrade
  tiers (``FULL`` → ``NO_POS`` → ``TEXT_ONLY``); recovery is
  hysteresis-guarded so a single good batch never flaps the tier back.

Both pieces serialize (:meth:`BoundedIngestQueue.to_dict`,
:meth:`OverloadController.to_dict`) so a supervised run can checkpoint
mid-overload and resume exactly — including pending queue contents,
the shed-sampling RNG state, and the controller's hysteresis counters.

All transitions are observable: ``overload_shed_total{policy}``,
``ingest_queue_depth``, ``degrade_level``, ``controller_batch_size``,
``batch_deadline_miss_total`` and ``overload_transitions_total``
land in the shared metrics registry, and an optional
:class:`~repro.obs.export.TelemetrySink` receives discrete
``shed``/``degrade``/``recover``/``batch_resize`` events.

Like :mod:`repro.reliability.deadletter`, this module imports nothing
from the pipeline or engine layers, so both can depend on it without
cycles (the degrade tiers themselves live in
:mod:`repro.core.features`, one level below).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.core.features import DegradeTier
from repro.data.tweet import Tweet
from repro.obs.logconfig import get_logger

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.obs.export import TelemetrySink
    from repro.obs.metrics import MetricsRegistry

logger = get_logger("overload")

#: Shedding policies, in documentation order — one vocabulary for the
#: ingest queue and the serving admission controller.
SHED_POLICIES = ("drop-oldest", "drop-newest", "sample")

#: Keep-probability and RNG seed of the ``sample`` policy by default.
SAMPLE_KEEP = 0.5
SHED_SEED = 29

#: The controller's batch-size ladder: a pressured step multiplies the
#: batch by ``SHRINK_FACTOR``, a recovery step by ``GROW_FACTOR`` (up to
#: the initial size), and a batch is comfortable only when it ran within
#: ``RECOVERY_HEADROOM`` of the deadline.
SHRINK_FACTOR = 0.5
GROW_FACTOR = 1.5
RECOVERY_HEADROOM = 0.5


def evicts_oldest(policy: str, rng: random.Random, keep: float) -> bool:
    """The shed decision for a full line, shared by both sides.

    True: evict the oldest waiter and take the arrival in its place
    (when there is no waiter to evict, the arrival is shed after all).
    False: shed the arrival. ``drop-oldest`` always evicts,
    ``drop-newest`` never does, and ``sample`` evicts with probability
    ``keep``, drawing exactly one number from ``rng`` — the seeded
    stream a checkpoint serializes.
    """
    if policy == "drop-oldest":
        return True
    if policy == "drop-newest":
        return False
    return rng.random() < keep


@dataclass
class QueueEntry:
    """One queued tweet plus its (optional) simulated arrival time."""

    tweet: Tweet
    seq: int
    arrival_s: Optional[float] = None


class BoundedIngestQueue:
    """Capacity-bounded ingest buffer with explicit load shedding.

    The queue preserves arrival order on drain while internally keeping
    labeled and unlabeled tweets in separate deques (merged by sequence
    number), so the labeled-retention guarantee — shedding never
    touches labeled tweets, and a labeled arrival can always displace
    an unlabeled one — costs O(1) per operation.

    Args:
        capacity: hard bound on queued tweets. ``offer`` never lets the
            backlog exceed it (labeled arrivals displace unlabeled
            backlog; if the whole queue is labeled, a labeled arrival
            is admitted anyway — the only, explicitly-counted soft
            spot, sized by the labeled fraction, never the firehose).
        policy: shedding policy name (one of :data:`SHED_POLICIES`).
        high_watermark: backlog fraction at or above which the
            overload controller counts a batch as pressured.
        low_watermark: backlog fraction at or below which the overload
            controller may recover — its recovery gate.
        sample_keep: keep-probability for the ``sample`` policy.
        seed: RNG seed for ``sample`` (state serializes).
        metrics: optional registry for ``overload_shed_total{policy}``
            and the depth gauges.
        telemetry: optional sink; one ``shed`` event is emitted per
            shed tweet (id only — the payload is already gone).
    """

    def __init__(
        self,
        capacity: int = 10_000,
        policy: str = "drop-oldest",
        high_watermark: float = 0.8,
        low_watermark: float = 0.5,
        sample_keep: float = SAMPLE_KEEP,
        seed: int = SHED_SEED,
        metrics: Optional["MetricsRegistry"] = None,
        telemetry: Optional["TelemetrySink"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; known: {list(SHED_POLICIES)}"
            )
        if not 0.0 < high_watermark <= 1.0:
            raise ValueError("high_watermark must be in (0, 1]")
        if not 0.0 <= low_watermark <= high_watermark:
            raise ValueError("low_watermark must be in [0, high_watermark]")
        if not 0.0 <= sample_keep <= 1.0:
            raise ValueError("sample_keep must be in [0, 1]")
        self.capacity = capacity
        self.policy = policy
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.sample_keep = sample_keep
        self.seed = seed
        self._rng = random.Random(seed)
        self._labeled: Deque[QueueEntry] = deque()
        self._unlabeled: Deque[QueueEntry] = deque()
        self._seq = 0
        self.n_offered = 0
        self.n_admitted = 0
        self.n_shed = 0
        self.n_drained = 0
        self.n_over_capacity = 0  # labeled soft-admits past the bound
        self.max_depth = 0
        self.metrics = metrics
        self.telemetry = telemetry
        self._m_shed = (
            metrics.counter("overload_shed_total", policy=policy)
            if metrics is not None
            else None
        )
        self._publish_depth()

    # -- state signals ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._labeled) + len(self._unlabeled)

    @property
    def depth_fraction(self) -> float:
        """Backlog relative to capacity (may exceed 1 on soft-admits)."""
        return len(self) / self.capacity

    def _publish_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("ingest_queue_depth").set(len(self))
            self.metrics.gauge("ingest_queue_fraction").set(
                self.depth_fraction
            )

    def _append(self, entry: QueueEntry) -> None:
        side = self._labeled if entry.tweet.is_labeled() else self._unlabeled
        side.append(entry)

    # -- offer / drain ---------------------------------------------------

    def offer(self, tweet: Tweet, arrival_s: Optional[float] = None) -> bool:
        """Offer one tweet; returns ``True`` if it entered the queue.

        When the queue is full: a labeled arrival displaces the oldest
        unlabeled queued tweet (or is soft-admitted if none exists);
        for an unlabeled arrival :func:`evicts_oldest` decides between
        displacing the oldest unlabeled queued tweet and shedding the
        arrival. Every shed tweet increments
        ``overload_shed_total{policy}``.
        """
        self.n_offered += 1
        entry = QueueEntry(tweet=tweet, seq=self._seq, arrival_s=arrival_s)
        self._seq += 1
        shed: Optional[QueueEntry] = None
        if len(self) < self.capacity:
            self._append(entry)
        elif tweet.is_labeled():
            # Labeled tweets are never shed: model training must not
            # starve during a burst (§V-E's mixture guarantees labeled
            # traffic is a small fraction of the firehose).
            if self._unlabeled:
                shed = self._unlabeled.popleft()
            else:
                self.n_over_capacity += 1
            self._append(entry)
        elif (
            evicts_oldest(self.policy, self._rng, self.sample_keep)
            and self._unlabeled
        ):
            # Decide first: ``sample`` draws even when the backlog is
            # all labeled, and the seeded stream must not shift.
            shed = self._unlabeled.popleft()
            self._append(entry)
        else:
            shed = entry
        admitted = shed is not entry
        if admitted:
            self.n_admitted += 1
        if shed is not None:
            self.n_shed += 1
            if self._m_shed is not None:
                self._m_shed.inc()
            if self.telemetry is not None:
                self.telemetry.event(
                    "shed",
                    policy=self.policy,
                    tweet_id=shed.tweet.tweet_id,
                    queue_depth=len(self),
                )
        self.max_depth = max(self.max_depth, len(self))
        self._publish_depth()
        return admitted

    def peek_arrival(self) -> Optional[float]:
        """Arrival time of the next entry to drain (``None`` if unset)."""
        entry = self._peek()
        return entry.arrival_s if entry is not None else None

    def _peek(self) -> Optional[QueueEntry]:
        if self._labeled and self._unlabeled:
            head_l, head_u = self._labeled[0], self._unlabeled[0]
            return head_l if head_l.seq < head_u.seq else head_u
        if self._labeled:
            return self._labeled[0]
        if self._unlabeled:
            return self._unlabeled[0]
        return None

    def drain_entries(self, n: int) -> List[QueueEntry]:
        """Remove and return up to ``n`` entries in arrival order."""
        if n < 1:
            raise ValueError("n must be >= 1")
        out: List[QueueEntry] = []
        while len(out) < n:
            if self._labeled and self._unlabeled:
                source = (
                    self._labeled
                    if self._labeled[0].seq < self._unlabeled[0].seq
                    else self._unlabeled
                )
            elif self._labeled:
                source = self._labeled
            elif self._unlabeled:
                source = self._unlabeled
            else:
                break
            out.append(source.popleft())
        self.n_drained += len(out)
        self._publish_depth()
        return out

    def drain(self, n: int) -> List[Tweet]:
        """Remove and return up to ``n`` tweets in arrival order."""
        return [entry.tweet for entry in self.drain_entries(n)]

    # -- accounting ------------------------------------------------------

    def as_counters(self) -> Dict[str, int]:
        """JSON-safe counter snapshot (health reports)."""
        return {
            "n_offered": self.n_offered,
            "n_admitted": self.n_admitted,
            "n_shed": self.n_shed,
            "n_drained": self.n_drained,
            "n_over_capacity": self.n_over_capacity,
            "depth": len(self),
            "max_depth": self.max_depth,
        }

    # -- checkpoint (de)serialization ------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Complete queue state: config, counters, RNG, pending tweets.

        Pending entries serialize fully (tweet payload + sequence +
        arrival time) — the capacity bound keeps this small — so a
        resumed run drains exactly the backlog the crashed run held.
        """
        entries = sorted(
            list(self._labeled) + list(self._unlabeled),
            key=lambda e: e.seq,
        )
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "sample_keep": self.sample_keep,
            "seed": self.seed,
            "rng_state": _rng_state_to_json(self._rng.getstate()),
            "seq": self._seq,
            "counters": self.as_counters(),
            "entries": [
                {
                    "tweet": entry.tweet.to_json(),
                    "seq": entry.seq,
                    "arrival_s": entry.arrival_s,
                }
                for entry in entries
            ],
        }

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, Any],
        metrics: Optional["MetricsRegistry"] = None,
        telemetry: Optional["TelemetrySink"] = None,
    ) -> "BoundedIngestQueue":
        """Rebuild a queue that continues exactly where the saved one was.

        Counters, RNG state, and the pending backlog are restored;
        metric/telemetry bindings are supplied by the caller (a resumed
        run typically restores the registry separately from its exact
        checkpoint snapshot, so the queue does not replay counts).
        """
        queue = cls(
            capacity=int(payload["capacity"]),
            policy=str(payload["policy"]),
            high_watermark=float(payload["high_watermark"]),
            low_watermark=float(payload["low_watermark"]),
            sample_keep=float(payload["sample_keep"]),
            seed=int(payload["seed"]),
            metrics=metrics,
            telemetry=telemetry,
        )
        queue._rng.setstate(_rng_state_from_json(payload["rng_state"]))
        queue._seq = int(payload["seq"])
        counters = payload["counters"]
        queue.n_offered = int(counters["n_offered"])
        queue.n_admitted = int(counters["n_admitted"])
        queue.n_shed = int(counters["n_shed"])
        queue.n_drained = int(counters["n_drained"])
        queue.n_over_capacity = int(counters["n_over_capacity"])
        queue.max_depth = int(counters["max_depth"])
        for item in payload["entries"]:
            entry = QueueEntry(
                tweet=Tweet.from_json(item["tweet"]),
                seq=int(item["seq"]),
                arrival_s=(
                    float(item["arrival_s"])
                    if item["arrival_s"] is not None
                    else None
                ),
            )
            queue._append(entry)
        queue._publish_depth()
        return queue


def serve_backlog(
    queue: BoundedIngestQueue,
    free_s: float,
    serve: Callable[[float], float],
    until_s: float = math.inf,
) -> float:
    """Run one simulated server over ``queue``'s backlog.

    Each batch starts at max(server free, head arrival) and is served
    only if it starts before ``until_s`` (the next arrival; the default
    drains everything). ``serve(start_s)`` drains the caller's batch,
    does or models its work and returns the batch's duration in
    seconds; it must take at least the head entry. Returns the time the
    server is next free.
    """
    while len(queue):
        start_s = max(free_s, queue.peek_arrival() or 0.0)
        if start_s >= until_s:
            break
        free_s = start_s + serve(start_s)
    return free_s


def _rng_state_to_json(state: Any) -> List[Any]:
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(payload: Any) -> Tuple[Any, ...]:
    version, internal, gauss = payload
    return (version, tuple(internal), gauss)


class OverloadController:
    """Deadline-driven adaptive degradation with hysteresis.

    The controller observes one signal pair per batch — the batch's
    (simulated or wall-clock) duration against a soft deadline, and the
    ingest queue's depth fraction — and reacts in two stages:

    * **pressure** (deadline missed, or backlog above the high
      watermark) for ``degrade_after`` consecutive batches first
      *shrinks* the batch size (by :data:`SHRINK_FACTOR` toward
      ``min_batch_size``), and
      once the batch floor is reached steps the feature pipeline down
      one :class:`~repro.core.features.DegradeTier`;
    * **comfort** (duration within :data:`RECOVERY_HEADROOM` of the
      deadline *and* backlog below the low watermark) for
      ``recover_after`` consecutive batches reverses one step —
      restoring the tier first, then growing the batch back (by
      :data:`GROW_FACTOR`) toward the initial ``batch_size``, kept as
      ``max_batch_size``.

    The two streak counters are the hysteresis guard: any batch that is
    neither pressured nor comfortable resets both, so oscillating load
    holds the current operating point instead of flapping.

    Args:
        batch_deadline_s: soft per-batch deadline (seconds).
        batch_size: initial batch size, and the ceiling for growth.
        min_batch_size: floor for shrinking (default ``batch_size//8``,
            at least 1).
        degrade_after: consecutive pressured batches per degrade step.
        recover_after: consecutive comfortable batches per recovery
            step.
        queue: optional :class:`BoundedIngestQueue`; when set,
            :meth:`observe_batch` reads its depth fraction by default.
        metrics: optional registry for the controller gauges/counters.
        telemetry: optional sink for transition events.
        n_partitions: enables the third actuator — elastic partition
            count. When set, straggler pressure (timed-out or lost
            partitions reported via ``observe_batch``) counts as
            overload, and once batch size and tier are exhausted the
            controller halves the partition count toward
            ``min_partitions`` (fewer concurrent tasks contend less on
            few cores and each failure domain gets coarser); recovery
            restores partitions *first* (the reverse of the degrade
            ladder), then tier, then batch size.
        min_partitions / max_partitions: bounds for the elastic range
            (defaults: 1 and the initial ``n_partitions``).
    """

    def __init__(
        self,
        batch_deadline_s: float,
        batch_size: int,
        min_batch_size: Optional[int] = None,
        degrade_after: int = 2,
        recover_after: int = 3,
        queue: Optional[BoundedIngestQueue] = None,
        metrics: Optional["MetricsRegistry"] = None,
        telemetry: Optional["TelemetrySink"] = None,
        engine_label: str = "microbatch",
        n_partitions: Optional[int] = None,
        min_partitions: Optional[int] = None,
        max_partitions: Optional[int] = None,
    ) -> None:
        if batch_deadline_s <= 0:
            raise ValueError("batch_deadline_s must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if min_batch_size is None:
            min_batch_size = max(1, batch_size // 8)
        if not 1 <= min_batch_size <= batch_size:
            raise ValueError("need 1 <= min_batch_size <= batch_size")
        if degrade_after < 1 or recover_after < 1:
            raise ValueError("degrade_after/recover_after must be >= 1")
        if n_partitions is None:
            if min_partitions is not None or max_partitions is not None:
                raise ValueError(
                    "min_partitions/max_partitions require n_partitions"
                )
        else:
            if min_partitions is None:
                min_partitions = 1
            if max_partitions is None:
                max_partitions = n_partitions
            if not 1 <= min_partitions <= n_partitions <= max_partitions:
                raise ValueError(
                    "need 1 <= min_partitions <= n_partitions"
                    " <= max_partitions"
                )
        self.n_partitions = n_partitions
        self.min_partitions = min_partitions
        self.max_partitions = max_partitions
        self.n_partition_resizes = 0
        self.n_stragglers_seen = 0
        self.batch_deadline_s = batch_deadline_s
        self.batch_size = batch_size
        self.min_batch_size = min_batch_size
        self.max_batch_size = batch_size
        self.degrade_after = degrade_after
        self.recover_after = recover_after
        self.queue = queue
        self.telemetry = telemetry
        self.engine_label = engine_label
        self.tier = DegradeTier.FULL
        self.pressure_streak = 0
        self.comfort_streak = 0
        self.n_batches = 0
        self.n_deadline_misses = 0
        self.n_degrades = 0
        self.n_recovers = 0
        self.n_resizes = 0
        self.max_tier_reached = DegradeTier.FULL
        self.metrics = metrics
        self._m_miss = self._m_degrade = self._m_recover = None
        if metrics is not None:
            self._m_miss = metrics.counter(
                "batch_deadline_miss_total", engine=engine_label
            )
            self._m_degrade = metrics.counter(
                "overload_transitions_total", direction="degrade"
            )
            self._m_recover = metrics.counter(
                "overload_transitions_total", direction="recover"
            )
        # batch_seconds read-back cursor for poll().
        self._polled_count = 0
        self._polled_sum = 0.0
        self._publish()

    def _publish(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("degrade_level").set(int(self.tier))
            self.metrics.gauge("controller_batch_size").set(self.batch_size)
            if self.n_partitions is not None:
                self.metrics.gauge("controller_n_partitions").set(
                    self.n_partitions
                )

    # -- observation -----------------------------------------------------

    def observe_batch(
        self,
        batch_seconds: float,
        queue_fraction: Optional[float] = None,
        n_stragglers: int = 0,
    ) -> None:
        """Feed one completed batch's duration into the control loop.

        ``n_stragglers`` is the batch's count of timed-out or
        worker-lost partitions; any straggler counts as pressure (and
        blocks comfort) regardless of the batch's own duration, since a
        timed-out partition means the runner already gave up on part of
        the batch once.
        """
        if queue_fraction is None:
            queue_fraction = (
                self.queue.depth_fraction if self.queue is not None else 0.0
            )
        self.n_batches += 1
        self.n_stragglers_seen += n_stragglers
        missed = batch_seconds > self.batch_deadline_s
        if missed:
            self.n_deadline_misses += 1
            if self._m_miss is not None:
                self._m_miss.inc()
        high = (
            self.queue.high_watermark if self.queue is not None else 0.8
        )
        low = self.queue.low_watermark if self.queue is not None else 0.5
        pressured = missed or queue_fraction >= high or n_stragglers > 0
        comfortable = (
            not missed
            and n_stragglers == 0
            and batch_seconds <= self.batch_deadline_s * RECOVERY_HEADROOM
            and queue_fraction <= low
        )
        if pressured:
            self.comfort_streak = 0
            self.pressure_streak += 1
            if self.pressure_streak >= self.degrade_after:
                self._degrade_step()
                self.pressure_streak = 0
        elif comfortable:
            self.pressure_streak = 0
            self.comfort_streak += 1
            if self.comfort_streak >= self.recover_after:
                self._recover_step()
                self.comfort_streak = 0
        else:
            # Neutral batch: hysteresis demands *consecutive* evidence.
            self.pressure_streak = 0
            self.comfort_streak = 0
        self._publish()

    def poll(self, queue_fraction: Optional[float] = None) -> bool:
        """Observe new batches via the registry's ``batch_seconds``.

        Reads the ``batch_seconds{engine=...}`` histogram's count/sum
        deltas since the last poll; if batches completed, their mean
        duration feeds :meth:`observe_batch` once. Returns whether
        anything new was observed. This is how a supervisor drives the
        controller without plumbing timings out of the engine — the
        registry is already the shared timing channel.
        """
        if self.metrics is None:
            raise RuntimeError("poll() requires a metrics registry")
        hist = self.metrics.histogram(
            "batch_seconds", engine=self.engine_label
        )
        delta_count = hist.count - self._polled_count
        if delta_count <= 0:
            return False
        delta_sum = hist.sum - self._polled_sum
        self._polled_count = hist.count
        self._polled_sum = hist.sum
        self.observe_batch(delta_sum / delta_count, queue_fraction)
        return True

    # -- transitions -----------------------------------------------------

    def _degrade_step(self) -> None:
        if self.batch_size > self.min_batch_size:
            new_size = max(
                self.min_batch_size, int(self.batch_size * SHRINK_FACTOR)
            )
            self._resize(new_size)
            return
        if self.tier < DegradeTier.TEXT_ONLY:
            self.tier = DegradeTier(self.tier + 1)
            self.max_tier_reached = max(self.max_tier_reached, self.tier)
            self.n_degrades += 1
            if self._m_degrade is not None:
                self._m_degrade.inc()
            logger.warning(
                "overload: degrading feature pipeline to %s "
                "(%d deadline misses over %d batches)",
                self.tier.name, self.n_deadline_misses, self.n_batches,
            )
            if self.telemetry is not None:
                self.telemetry.event(
                    "degrade", tier=self.tier.name, level=int(self.tier)
                )
            return
        # Last rung of the ladder: fewer, coarser partitions — less
        # per-task overhead and scheduling contention on few cores,
        # and each straggler retry re-runs a larger (but rarer) slice.
        if (
            self.n_partitions is not None
            and self.n_partitions > self.min_partitions
        ):
            self._resize_partitions(
                max(self.min_partitions, self.n_partitions // 2)
            )

    def _recover_step(self) -> None:
        # Reverse of the degrade ladder: partitions come back first so
        # parallelism is restored before the cheaper knobs unwind.
        if (
            self.n_partitions is not None
            and self.n_partitions < self.max_partitions
        ):
            self._resize_partitions(
                min(self.max_partitions, max(self.n_partitions + 1,
                                             self.n_partitions * 2))
            )
            return
        if self.tier > DegradeTier.FULL:
            self.tier = DegradeTier(self.tier - 1)
            self.n_recovers += 1
            if self._m_recover is not None:
                self._m_recover.inc()
            logger.info(
                "overload: recovering feature pipeline to %s", self.tier.name
            )
            if self.telemetry is not None:
                self.telemetry.event(
                    "recover", tier=self.tier.name, level=int(self.tier)
                )
            return
        if self.batch_size < self.max_batch_size:
            new_size = min(
                self.max_batch_size,
                max(
                    self.batch_size + 1,
                    int(self.batch_size * GROW_FACTOR),
                ),
            )
            self._resize(new_size)

    def _resize(self, new_size: int) -> None:
        if new_size == self.batch_size:
            return
        old = self.batch_size
        self.batch_size = new_size
        self.n_resizes += 1
        logger.info("overload: batch size %d -> %d", old, new_size)
        if self.telemetry is not None:
            self.telemetry.event(
                "batch_resize", old=old, new=new_size
            )

    def _resize_partitions(self, new_count: int) -> None:
        if new_count == self.n_partitions:
            return
        old = self.n_partitions
        self.n_partitions = new_count
        self.n_partition_resizes += 1
        logger.info("overload: partition count %s -> %d", old, new_count)
        if self.telemetry is not None:
            self.telemetry.event(
                "partition_resize", old=old, new=new_count
            )

    # -- checkpoint (de)serialization ------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Controller configuration + adaptive state (checkpoint v3)."""
        return {
            "batch_deadline_s": self.batch_deadline_s,
            "batch_size": self.batch_size,
            "min_batch_size": self.min_batch_size,
            "max_batch_size": self.max_batch_size,
            "degrade_after": self.degrade_after,
            "recover_after": self.recover_after,
            "engine_label": self.engine_label,
            "tier": int(self.tier),
            "max_tier_reached": int(self.max_tier_reached),
            "pressure_streak": self.pressure_streak,
            "comfort_streak": self.comfort_streak,
            "n_batches": self.n_batches,
            "n_deadline_misses": self.n_deadline_misses,
            "n_degrades": self.n_degrades,
            "n_recovers": self.n_recovers,
            "n_resizes": self.n_resizes,
            "polled_count": self._polled_count,
            "polled_sum": self._polled_sum,
            # Elastic partition actuator (checkpoint v4; absent in v3
            # payloads and optional on read).
            "n_partitions": self.n_partitions,
            "min_partitions": self.min_partitions,
            "max_partitions": self.max_partitions,
            "n_partition_resizes": self.n_partition_resizes,
            "n_stragglers_seen": self.n_stragglers_seen,
        }

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, Any],
        queue: Optional[BoundedIngestQueue] = None,
        metrics: Optional["MetricsRegistry"] = None,
        telemetry: Optional["TelemetrySink"] = None,
    ) -> "OverloadController":
        """Rebuild a controller mid-episode (hysteresis included).

        The growth ceiling ``max_batch_size`` is the constructor's
        ``batch_size``. Older payloads also carry ``recovery_headroom``,
        ``shrink_factor`` and ``grow_factor``; nothing ever set them
        off their defaults, which are now module constants, so they
        are ignored.
        """
        # Elastic-partition keys arrived with checkpoint v4; older
        # payloads simply have no partition actuator.
        max_parts = payload.get("max_partitions")
        controller = cls(
            batch_deadline_s=float(payload["batch_deadline_s"]),
            batch_size=int(payload["max_batch_size"]),
            min_batch_size=int(payload["min_batch_size"]),
            degrade_after=int(payload["degrade_after"]),
            recover_after=int(payload["recover_after"]),
            queue=queue,
            metrics=metrics,
            telemetry=telemetry,
            engine_label=str(payload["engine_label"]),
            n_partitions=(
                int(max_parts) if max_parts is not None else None
            ),
            min_partitions=(
                int(payload["min_partitions"])
                if max_parts is not None
                else None
            ),
            max_partitions=(
                int(max_parts) if max_parts is not None else None
            ),
        )
        controller.batch_size = int(payload["batch_size"])
        if max_parts is not None:
            controller.n_partitions = int(payload["n_partitions"])
        controller.n_partition_resizes = int(
            payload.get("n_partition_resizes", 0)
        )
        controller.n_stragglers_seen = int(
            payload.get("n_stragglers_seen", 0)
        )
        controller.tier = DegradeTier(int(payload["tier"]))
        controller.max_tier_reached = DegradeTier(
            int(payload["max_tier_reached"])
        )
        controller.pressure_streak = int(payload["pressure_streak"])
        controller.comfort_streak = int(payload["comfort_streak"])
        controller.n_batches = int(payload["n_batches"])
        controller.n_deadline_misses = int(payload["n_deadline_misses"])
        controller.n_degrades = int(payload["n_degrades"])
        controller.n_recovers = int(payload["n_recovers"])
        controller.n_resizes = int(payload["n_resizes"])
        controller._polled_count = int(payload["polled_count"])
        controller._polled_sum = float(payload["polled_sum"])
        controller._publish()
        return controller

"""Poison-input quarantine: dead-letter queue, validation, circuit breaker.

A real Twitter firehose carries malformed and adversarial records —
null texts, impossible counters, bot junk ("On-the-fly Detection of
Autogenerated Tweets" documents the scale). A production stream must
*quarantine* such records, not crash on them: the pipeline wraps its
fallible stages per tweet, routes failures into a bounded
:class:`DeadLetterQueue` (tweet id, failing stage, exception,
traceback) and keeps flowing in degraded mode (skip-and-count). A
:class:`CircuitBreaker` bounds the damage: if the observed failure rate
exceeds a threshold the breaker opens and the run fails loudly — a
stream that quarantines half its input is broken upstream, and silently
dropping it would corrupt every downstream metric. The same class,
windowed and probing, guards each serving endpoint.

This module deliberately imports nothing from the pipeline or engine
layers so both can depend on it without cycles.
"""

from __future__ import annotations

import math
import traceback as traceback_module
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional

from repro.obs.logconfig import get_logger

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

logger = get_logger("deadletter")

#: Timestamps outside this window (seconds since epoch) are considered
#: corrupt. The window is deliberately enormous — ±30k years — so no
#: real payload ever trips it, only garbage like 1e18 or -1e15.
MIN_TIMESTAMP = -1e12
MAX_TIMESTAMP = 1e12


class PoisonTweetError(ValueError):
    """A tweet failed ingest validation and must be quarantined."""


class CircuitOpenError(RuntimeError):
    """The poison-rate circuit breaker tripped; the stream is unhealthy."""


@dataclass(frozen=True)
class DeadLetterRecord:
    """One quarantined input, with enough context to debug it offline."""

    tweet_id: Optional[str]
    stage: str
    error: str
    traceback: str = ""
    batch_index: Optional[int] = None

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe view (for reports and checkpoint files)."""
        return {
            "tweet_id": self.tweet_id,
            "stage": self.stage,
            "error": self.error,
            "traceback": self.traceback,
            "batch_index": self.batch_index,
        }


class DeadLetterQueue:
    """Bounded quarantine buffer for poison inputs.

    Keeps the most recent ``capacity`` records (older ones are counted
    but dropped, so an endless poison storm cannot exhaust memory) plus
    total/dropped counters for health reporting. Capacity evictions are
    never silent: each one increments ``deadletter_dropped_total`` when
    a ``metrics`` registry is attached, and the first eviction logs a
    WARNING (once per queue — a poison storm must not flood the log).
    """

    def __init__(
        self,
        capacity: int = 1000,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: Deque[DeadLetterRecord] = deque(maxlen=capacity)
        self.n_total = 0
        self.metrics = metrics
        self._warned_drop = False

    def add(self, record: DeadLetterRecord) -> None:
        """Quarantine one record (evicting the oldest when full)."""
        self.n_total += 1
        if len(self._records) >= self.capacity:
            if self.metrics is not None:
                self.metrics.counter("deadletter_dropped_total").inc()
            if not self._warned_drop:
                self._warned_drop = True
                logger.warning(
                    "dead-letter queue full (capacity=%d): evicting oldest "
                    "quarantined records; raise the capacity or fix the "
                    "upstream poison source (suppressing further warnings)",
                    self.capacity,
                )
        self._records.append(record)

    def add_failure(
        self,
        tweet_id: Optional[str],
        stage: str,
        exc: BaseException,
        batch_index: Optional[int] = None,
        with_traceback: bool = True,
    ) -> DeadLetterRecord:
        """Build a record from a live exception and quarantine it."""
        trace = ""
        if with_traceback:
            trace = "".join(
                traceback_module.format_exception(
                    type(exc), exc, exc.__traceback__
                )
            )
        record = DeadLetterRecord(
            tweet_id=tweet_id,
            stage=stage,
            error=f"{type(exc).__name__}: {exc}",
            traceback=trace,
            batch_index=batch_index,
        )
        self.add(record)
        return record

    @property
    def records(self) -> List[DeadLetterRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def by_stage(self) -> Dict[str, int]:
        """Histogram of retained records by failing stage."""
        histogram: Dict[str, int] = {}
        for record in self._records:
            histogram[record.stage] = histogram.get(record.stage, 0) + 1
        return histogram


#: While a breaker is open, :meth:`CircuitBreaker.allow` lets one
#: half-open probe through per this many rejected calls.
PROBE_EVERY = 8


class CircuitBreaker:
    """Failure-rate circuit breaker, cumulative or over a rolling window.

    Counts successes and failures; once at least ``min_events``
    outcomes have been seen and the failure rate exceeds
    ``max_failure_rate``, the breaker is *open* and :meth:`check`
    raises :class:`CircuitOpenError`.

    ``window=None`` counts the whole stream. That keeps the breaker
    deterministic and replayable — the supervisor checkpoints and
    restores ``n_ok``/``n_failed`` — and suits the streaming poison
    breaker, whose job is to stop a doomed run for good. With
    ``window=N`` only the last N outcomes count, and :meth:`allow` lets
    probes through while open, so a serving endpoint closes again once
    its fault clears: probe successes push the failures out of the
    window.
    """

    def __init__(
        self,
        max_failure_rate: float = 0.05,
        min_events: int = 100,
        window: Optional[int] = None,
    ) -> None:
        if not 0.0 <= max_failure_rate <= 1.0:
            raise ValueError("max_failure_rate must be in [0, 1]")
        if min_events < 1:
            raise ValueError("min_events must be >= 1")
        if window is not None and window < 1:
            raise ValueError("window must be >= 1")
        self.max_failure_rate = max_failure_rate
        self.min_events = min_events
        self.window = window
        self._outcomes: Optional[Deque[bool]] = (
            deque(maxlen=window) if window is not None else None
        )
        self.n_ok = 0
        self.n_failed = 0
        self._rejected_since_probe = 0

    def record(self, failed: bool) -> None:
        """Record one input's outcome (evicting the oldest when windowed)."""
        outcomes = self._outcomes
        if outcomes is not None:
            if len(outcomes) == self.window:
                if outcomes[0]:
                    self.n_failed -= 1
                else:
                    self.n_ok -= 1
            outcomes.append(bool(failed))
        if failed:
            self.n_failed += 1
        else:
            self.n_ok += 1

    def record_batch(self, n_ok: int, n_failed: int) -> None:
        """Record a whole batch's outcomes in O(1) (cumulative only)."""
        if self._outcomes is not None:
            raise ValueError("a windowed breaker records outcomes in order")
        self.n_ok += n_ok
        self.n_failed += n_failed

    @property
    def n_events(self) -> int:
        return self.n_ok + self.n_failed

    @property
    def failure_rate(self) -> float:
        """Observed failure fraction (0 when nothing seen yet)."""
        if self.n_events == 0:
            return 0.0
        return self.n_failed / self.n_events

    @property
    def is_open(self) -> bool:
        """Whether the breaker has tripped."""
        return (
            self.n_events >= self.min_events
            and self.failure_rate > self.max_failure_rate
        )

    def allow(self) -> bool:
        """Whether a call may proceed: always while closed; while open,
        one half-open probe per :data:`PROBE_EVERY` rejected calls."""
        if not self.is_open:
            return True
        self._rejected_since_probe += 1
        if self._rejected_since_probe >= PROBE_EVERY:
            self._rejected_since_probe = 0
            return True
        return False

    def check(self) -> None:
        """Raise :class:`CircuitOpenError` if the breaker is open."""
        if self.is_open:
            raise CircuitOpenError(
                f"poison rate {self.failure_rate:.2%} exceeds "
                f"{self.max_failure_rate:.2%} after {self.n_events} tweets "
                f"({self.n_failed} quarantined)"
            )


@dataclass
class StreamHealth:
    """Operator-facing summary of a supervised run's reliability."""

    n_consumed: int = 0
    n_processed: int = 0
    n_quarantined: int = 0
    n_retries: int = 0
    n_shed: int = 0
    n_partition_timeouts: int = 0
    n_speculative_wins: int = 0
    n_checkpoints: int = 0
    last_checkpoint_batch: Optional[int] = None
    breaker_open: bool = False
    dead_letters_by_stage: Dict[str, int] = field(default_factory=dict)

    @property
    def poison_rate(self) -> float:
        """Quarantined fraction of everything drawn from the stream.

        ``nan`` before anything was consumed: a run that has seen no
        tweets has no poison rate, and reporting ``0.0`` would read as
        "verified clean".
        """
        if self.n_consumed == 0:
            return float("nan")
        return self.n_quarantined / self.n_consumed

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (CLI output, checkpoint files)."""
        return {
            "n_consumed": self.n_consumed,
            "n_processed": self.n_processed,
            "n_quarantined": self.n_quarantined,
            "poison_rate": self.poison_rate,
            "n_retries": self.n_retries,
            "n_shed": self.n_shed,
            "n_partition_timeouts": self.n_partition_timeouts,
            "n_speculative_wins": self.n_speculative_wins,
            "n_checkpoints": self.n_checkpoints,
            "last_checkpoint_batch": self.last_checkpoint_batch,
            "breaker_open": self.breaker_open,
            "dead_letters_by_stage": dict(self.dead_letters_by_stage),
        }

    @classmethod
    def from_registry(
        cls,
        registry: "MetricsRegistry",
        n_checkpoints: int = 0,
        last_checkpoint_batch: Optional[int] = None,
        breaker_open: bool = False,
        dead_letters_by_stage: Optional[Dict[str, int]] = None,
    ) -> "StreamHealth":
        """Rebuild the data-flow counts from a metrics registry.

        The flow counters (consumed/processed/quarantined/retries) are
        label-summed registry reads — there is no parallel bookkeeping
        to drift out of sync. Checkpoint bookkeeping and breaker state
        live outside the registry (a resumed run counts only its *own*
        checkpoints) and are passed through by the caller.
        """
        return cls(
            n_consumed=int(registry.total("tweets_consumed_total")),
            n_processed=int(registry.total("tweets_processed_total")),
            n_quarantined=int(registry.total("tweets_quarantined_total")),
            n_retries=int(registry.total("retries_total")),
            n_shed=int(registry.total("overload_shed_total")),
            n_partition_timeouts=int(
                registry.total("partition_timeouts_total")
            ),
            n_speculative_wins=int(
                registry.total("speculative_wins_total")
            ),
            n_checkpoints=n_checkpoints,
            last_checkpoint_batch=last_checkpoint_batch,
            breaker_open=breaker_open,
            dead_letters_by_stage=dict(dead_letters_by_stage or {}),
        )


def validate_tweet(tweet: Any) -> None:
    """Reject structurally corrupt tweets before they reach extraction.

    Raises:
        PoisonTweetError: when the text is not a string, a numeric
            field is NaN/infinite, or the timestamp is absurd. The
            checks are deliberately loose — they catch garbage (None
            text, NaN counters, year-33000 timestamps), never genuine
            Twitter payloads.
    """
    if not isinstance(tweet.text, str):
        raise PoisonTweetError(
            f"text must be a string, got {type(tweet.text).__name__}"
        )
    _require_finite("created_at", tweet.created_at)
    if not MIN_TIMESTAMP <= tweet.created_at <= MAX_TIMESTAMP:
        raise PoisonTweetError(
            f"absurd timestamp {tweet.created_at!r}"
        )
    user = tweet.user
    if user is not None:
        for name in (
            "created_at",
            "statuses_count",
            "listed_count",
            "followers_count",
            "friends_count",
        ):
            _require_finite(f"user.{name}", getattr(user, name))


def _require_finite(name: str, value: Any) -> None:
    try:
        numeric = float(value)
    except (TypeError, ValueError) as exc:
        raise PoisonTweetError(f"{name} is not numeric: {value!r}") from exc
    if not math.isfinite(numeric):
        raise PoisonTweetError(f"{name} is not finite: {value!r}")

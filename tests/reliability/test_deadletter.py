"""Dead-letter queue, circuit breaker, and tweet validation."""

import math

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.reliability import (
    CircuitBreaker,
    CircuitOpenError,
    DeadLetterQueue,
    PoisonTweetError,
    StreamHealth,
    corrupt_tweet,
    validate_tweet,
)


def _tweet():
    return AbusiveDatasetGenerator(
        n_tweets=1, n_days=1, seed=9
    ).generate_list()[0]


class TestDeadLetterQueue:
    def test_records_failure_with_context(self):
        queue = DeadLetterQueue()
        try:
            raise ValueError("boom")
        except ValueError as exc:
            queue.add_failure("t1", "extract", exc, batch_index=3)
        (record,) = queue.records
        assert record.tweet_id == "t1"
        assert record.stage == "extract"
        assert "boom" in record.error
        assert "ValueError" in record.traceback
        assert record.batch_index == 3
        assert record.as_dict()["stage"] == "extract"

    def test_bounded_capacity_drops_oldest(self):
        queue = DeadLetterQueue(capacity=2)
        for i in range(5):
            queue.add_failure(f"t{i}", "validate", ValueError(str(i)))
        assert queue.n_total == 5
        assert queue.n_total - len(queue) == 3
        assert [r.tweet_id for r in queue.records] == ["t3", "t4"]

    def test_capacity_drops_increment_metric(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        queue = DeadLetterQueue(capacity=2, metrics=registry)
        for i in range(5):
            queue.add_failure(f"t{i}", "validate", ValueError(str(i)))
        assert registry.counter_value("deadletter_dropped_total") == 3
        assert queue.n_total - len(queue) == 3

    def test_capacity_drop_warns_exactly_once(self):
        # Spy on the module logger directly: CLI tests may have set
        # propagate=False on the repro tree, which blinds caplog.
        from unittest import mock

        from repro.reliability import deadletter

        queue = DeadLetterQueue(capacity=1)
        with mock.patch.object(deadletter.logger, "warning") as warning:
            for i in range(4):
                queue.add_failure(f"t{i}", "validate", ValueError(str(i)))
        assert warning.call_count == 1
        assert "dead-letter queue full" in warning.call_args[0][0]

    def test_by_stage_histogram(self):
        queue = DeadLetterQueue()
        queue.add_failure("a", "validate", ValueError())
        queue.add_failure("b", "validate", ValueError())
        queue.add_failure("c", "predict", RuntimeError())
        assert queue.by_stage() == {"validate": 2, "predict": 1}


class TestCircuitBreaker:
    def test_stays_closed_below_min_events(self):
        breaker = CircuitBreaker(max_failure_rate=0.01, min_events=100)
        for _ in range(50):
            breaker.record(True)
        assert not breaker.is_open
        breaker.check()  # no raise

    def test_opens_past_rate_threshold(self):
        breaker = CircuitBreaker(max_failure_rate=0.05, min_events=10)
        breaker.record_batch(n_ok=90, n_failed=10)
        assert breaker.failure_rate == pytest.approx(0.10)
        assert breaker.is_open
        with pytest.raises(CircuitOpenError):
            breaker.check()

    def test_tolerates_rate_at_threshold(self):
        breaker = CircuitBreaker(max_failure_rate=0.10, min_events=10)
        breaker.record_batch(n_ok=90, n_failed=10)
        assert not breaker.is_open

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            CircuitBreaker(max_failure_rate=1.5)
        with pytest.raises(ValueError):
            CircuitBreaker(min_events=0)

    def test_total_failure_below_min_events_stays_closed(self):
        # Even a 100% failure rate is not actionable evidence until the
        # min_events window fills.
        breaker = CircuitBreaker(max_failure_rate=0.05, min_events=10)
        breaker.record_batch(n_ok=0, n_failed=9)
        assert breaker.failure_rate == 1.0
        assert not breaker.is_open
        breaker.check()  # no raise
        breaker.record(True)  # 10th event crosses the window
        assert breaker.is_open

    def test_rate_exactly_at_threshold_stays_closed(self):
        # The trip condition is strictly greater-than: a stream running
        # exactly at the configured budget is healthy.
        breaker = CircuitBreaker(max_failure_rate=0.05, min_events=100)
        breaker.record_batch(n_ok=95, n_failed=5)
        assert breaker.failure_rate == pytest.approx(0.05)
        assert not breaker.is_open
        breaker.record(True)  # one more failure tips it over
        assert breaker.is_open

    def test_empty_record_batch_is_noop(self):
        breaker = CircuitBreaker(max_failure_rate=0.0, min_events=1)
        breaker.record_batch(n_ok=0, n_failed=0)
        assert breaker.n_events == 0
        assert breaker.failure_rate == 0.0
        assert not breaker.is_open

    def test_record_batch_matches_single_records(self):
        batched = CircuitBreaker(max_failure_rate=0.1, min_events=5)
        singles = CircuitBreaker(max_failure_rate=0.1, min_events=5)
        batched.record_batch(n_ok=7, n_failed=3)
        for failed in [False] * 7 + [True] * 3:
            singles.record(failed)
        assert (batched.n_ok, batched.n_failed) == (
            singles.n_ok,
            singles.n_failed,
        )
        assert batched.is_open == singles.is_open


class TestValidateTweet:
    def test_accepts_well_formed_tweet(self):
        validate_tweet(_tweet())

    def test_rejects_none_text(self):
        with pytest.raises(PoisonTweetError):
            validate_tweet(corrupt_tweet(_tweet(), "none_text"))

    def test_rejects_nan_counts(self):
        with pytest.raises(PoisonTweetError):
            validate_tweet(corrupt_tweet(_tweet(), "nan_counts"))

    def test_rejects_absurd_timestamp(self):
        with pytest.raises(PoisonTweetError):
            validate_tweet(corrupt_tweet(_tweet(), "absurd_timestamp"))

    def test_error_names_the_defect(self):
        bad = corrupt_tweet(_tweet(), "none_text")
        with pytest.raises(PoisonTweetError, match="text"):
            validate_tweet(bad)


class TestStreamHealth:
    def test_poison_rate(self):
        health = StreamHealth(n_consumed=200, n_processed=190, n_quarantined=10)
        assert health.poison_rate == pytest.approx(0.05)
        # Nothing consumed -> no rate to report (nan, not a clean 0.0).
        assert math.isnan(StreamHealth().poison_rate)

    def test_as_dict_round_trips_counters(self):
        health = StreamHealth(
            n_consumed=10,
            n_processed=9,
            n_quarantined=1,
            n_retries=2,
            n_shed=4,
            n_checkpoints=3,
            last_checkpoint_batch=6,
            breaker_open=False,
            dead_letters_by_stage={"validate": 1},
        )
        payload = health.as_dict()
        assert payload["n_quarantined"] == 1
        assert payload["n_shed"] == 4
        assert payload["dead_letters_by_stage"] == {"validate": 1}
        assert not math.isnan(payload["poison_rate"])

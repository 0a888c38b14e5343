"""Retry/backoff behaviour of the micro-batch engine."""

import random

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import PartitionError, SerialRunner
from repro.reliability import FaultInjectingRunner, FaultInjector, RetryPolicy
from repro.reliability.deadletter import DeadLetterQueue


def _tweets(n=150, seed=13):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


def _no_sleep_policy(**kwargs):
    kwargs.setdefault("max_retries", 3)
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(sleep=lambda _s: None, **kwargs)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(
            base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff_delay(a, rng) for a in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.2)
        first = [
            policy.backoff_delay(a, random.Random(policy.seed))
            for a in range(3)
        ]
        second = [
            policy.backoff_delay(a, random.Random(policy.seed))
            for a in range(3)
        ]
        assert first == second
        assert all(0.8 <= d <= 1.2 for d in first)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestEngineRetry:
    def test_transient_failure_recovers_and_matches_fault_free_run(self):
        tweets = _tweets()
        clean = MicroBatchEngine(n_partitions=3, batch_size=50)
        clean_result = clean.run(tweets)

        # Partition 1 fails on the first attempt of the first batch and
        # again on the retry, which carries only that partition (so it
        # sits at position 0); the third attempt succeeds.
        injector = FaultInjector(schedule={0: [1], 1: [0]})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=3,
            batch_size=50,
            runner=runner,
            retry_policy=_no_sleep_policy(),
        )
        result = engine.run(tweets)
        assert engine.n_retries == 2
        assert result.n_retries == 2
        assert injector.n_injected == 2
        # Retried batches leave no trace: metrics identical to fault-free.
        assert result.metrics == clean_result.metrics
        assert result.n_processed == clean_result.n_processed
        assert engine.alert_manager.alerts == clean.alert_manager.alerts

    def test_fatal_failure_is_not_retried(self):
        injector = FaultInjector(schedule={0: [0]}, transient=False)
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=2,
            batch_size=50,
            runner=runner,
            retry_policy=_no_sleep_policy(),
        )
        with pytest.raises(PartitionError) as excinfo:
            engine.run(_tweets(60))
        assert not excinfo.value.transient
        assert runner.n_calls == 1  # no second attempt

    def test_fatal_failure_with_dead_letters_quarantines_the_partition(self):
        injector = FaultInjector(schedule={0: [0]}, transient=False)
        runner = FaultInjectingRunner(SerialRunner(), injector)
        queue = DeadLetterQueue()
        engine = MicroBatchEngine(
            n_partitions=2, batch_size=50, runner=runner, dead_letters=queue
        )
        result = engine.run(_tweets(60))
        # Partition 0 of the first batch (25 of its 50 tweets) becomes
        # one partition-grain record; every other tweet is processed.
        assert queue.by_stage() == {"partition": 1}
        assert result.n_quarantined == 25
        assert result.n_processed == 35
        registry = engine.metrics
        assert registry.total("tweets_processed_total") + registry.total(
            "tweets_quarantined_total"
        ) == registry.total("tweets_ingested_total") == 60

    def test_retries_exhausted_raises(self):
        injector = FaultInjector(schedule={i: [0] for i in range(10)})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=2,
            batch_size=50,
            runner=runner,
            retry_policy=_no_sleep_policy(max_retries=2),
        )
        with pytest.raises(PartitionError) as excinfo:
            engine.run(_tweets(60))
        assert excinfo.value.transient
        assert runner.n_calls == 3  # initial attempt + 2 retries

    def test_exhausted_retry_names_the_partition_in_the_batch(self):
        # Retry calls carry only the failing partition, at position 0;
        # the raised error still names partition 1 of the batch.
        injector = FaultInjector(schedule={0: [1], 1: [0], 2: [0]})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=2,
            batch_size=50,
            runner=runner,
            retry_policy=_no_sleep_policy(max_retries=2),
        )
        with pytest.raises(PartitionError) as excinfo:
            engine.run(_tweets(60))
        assert excinfo.value.partition_index == 1
        assert runner.n_calls == 3

    def test_no_policy_means_no_retry(self):
        injector = FaultInjector(schedule={0: [0]})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(n_partitions=2, batch_size=50, runner=runner)
        with pytest.raises(PartitionError):
            engine.run(_tweets(60))
        assert runner.n_calls == 1

    def test_backoff_sleeps_between_attempts(self):
        slept = []
        policy = RetryPolicy(
            max_retries=3,
            base_delay_s=0.1,
            multiplier=2.0,
            jitter=0.0,
            sleep=slept.append,
        )
        injector = FaultInjector(schedule={0: [0], 1: [0]})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=2, batch_size=50, runner=runner, retry_policy=policy
        )
        engine.run(_tweets(60))
        assert slept == pytest.approx([0.1, 0.2])


class TestEngineLifecycle:
    def test_close_is_idempotent(self):
        engine = MicroBatchEngine(n_partitions=2, batch_size=50)
        engine.run(_tweets(60))
        engine.close()
        engine.close()  # second close must be a no-op, not an error

    def test_run_closes_owned_runner_on_failure(self):
        closes = []

        class TrackingRunner(SerialRunner):
            def close(self):
                closes.append(True)

        engine = MicroBatchEngine(n_partitions=2, batch_size=50)
        # Swap the runner in the engine-owned slot so ownership holds.
        injector = FaultInjector(schedule={0: [0]}, transient=False)
        engine.runner = FaultInjectingRunner(TrackingRunner(), injector)
        assert engine._owns_runner
        with pytest.raises(PartitionError):
            engine.run(_tweets(60))
        assert closes  # the failing run() released the runner

    def test_injected_runner_not_closed_by_engine(self):
        closes = []

        class TrackingRunner(SerialRunner):
            def close(self):
                closes.append(True)

        runner = TrackingRunner()
        engine = MicroBatchEngine(n_partitions=2, batch_size=50, runner=runner)
        engine.run(_tweets(60))
        engine.close()
        assert not closes  # caller owns injected runners

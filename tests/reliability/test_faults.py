"""Deterministic fault injection: corrupting streams and failing runners."""

import math

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.runners import (
    PartitionError,
    SerialRunner,
    TransientWorkerError,
    is_transient_error,
)
from repro.reliability import (
    CORRUPTION_KINDS,
    FaultInjectingRunner,
    FaultInjector,
    corrupt_tweet,
    corrupting_stream,
)


def _tweets(n, seed=11):
    return AbusiveDatasetGenerator(
        n_tweets=n, n_days=1, seed=seed
    ).generate_list()


class TestCorruptTweet:
    def test_none_text(self):
        bad = corrupt_tweet(_tweets(1)[0], "none_text")
        assert bad.text is None

    def test_nan_counts(self):
        bad = corrupt_tweet(_tweets(1)[0], "nan_counts")
        assert math.isnan(bad.user.followers_count)
        assert math.isnan(bad.user.statuses_count)

    def test_absurd_timestamp(self):
        bad = corrupt_tweet(_tweets(1)[0], "absurd_timestamp")
        assert bad.created_at > 1e15

    def test_original_untouched(self):
        tweet = _tweets(1)[0]
        corrupt_tweet(tweet, "nan_counts")
        assert not math.isnan(tweet.user.followers_count)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            corrupt_tweet(_tweets(1)[0], "gamma_rays")


class TestCorruptingStream:
    def test_deterministic_for_seed(self):
        tweets = _tweets(200)
        first = [t.text for t in corrupting_stream(tweets, rate=0.1, seed=7)]
        second = [t.text for t in corrupting_stream(tweets, rate=0.1, seed=7)]
        assert first == second

    def test_rate_zero_is_identity(self):
        tweets = _tweets(50)
        out = list(corrupting_stream(tweets, rate=0.0, seed=7))
        assert out == tweets

    def test_approximate_rate_and_kind_cycling(self):
        tweets = _tweets(2000)
        out = list(corrupting_stream(tweets, rate=0.05, seed=3))
        corrupted = [pair for pair in zip(out, tweets) if pair[0] != pair[1]]
        assert 0.02 * len(tweets) < len(corrupted) < 0.08 * len(tweets)
        # All three corruption kinds appear in a long enough stream.
        assert any(t.text is None for t, _ in corrupted)
        assert any(
            isinstance(t.text, str) and math.isnan(t.user.followers_count)
            for t, _ in corrupted
        )
        assert any(t.created_at > 1e15 for t, _ in corrupted)
        assert set(CORRUPTION_KINDS) == {
            "none_text", "nan_counts", "absurd_timestamp"
        }


class _Task:
    """Picklable no-op partition task."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


class TestFaultInjector:
    def test_schedule_fails_exact_partition_and_call(self):
        injector = FaultInjector(schedule={0: [1], 2: [0]})
        assert injector.should_fail(0, 1)
        assert injector.should_fail(2, 0)
        assert not injector.should_fail(0, 0)
        assert not injector.should_fail(1, 1)

    def test_rate_draws_are_seeded(self):
        a = FaultInjector(rate=0.5, seed=21)
        b = FaultInjector(rate=0.5, seed=21)
        draws_a = [a.should_fail(i, 0) for i in range(50)]
        draws_b = [b.should_fail(i, 0) for i in range(50)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)

    def test_build_error_transient_flag(self):
        transient = FaultInjector(schedule={0: [0]}, transient=True)
        fatal = FaultInjector(schedule={0: [0]}, transient=False)
        with pytest.raises(TransientWorkerError):
            transient.build_action(0, 0).apply()
        with pytest.raises(RuntimeError) as excinfo:
            fatal.build_action(0, 0).apply()
        assert not is_transient_error(excinfo.value)


class TestFaultInjectingRunner:
    def test_passes_through_when_no_fault(self):
        runner = FaultInjectingRunner(SerialRunner(), FaultInjector())
        assert runner.run([_Task(1), _Task(2)]) == [1, 2]
        assert runner.n_calls == 1

    def test_injects_on_scheduled_call(self):
        injector = FaultInjector(schedule={1: [0]})  # second run(), part 0
        runner = FaultInjectingRunner(SerialRunner(), injector)
        assert runner.run([_Task(1)]) == [1]
        with pytest.raises(PartitionError) as excinfo:
            runner.run([_Task(1)])
        assert excinfo.value.transient
        assert excinfo.value.partition_index == 0
        # Third call succeeds again: the fault was transient.
        assert runner.run([_Task(1)]) == [1]

    def test_close_propagates_to_inner(self):
        class Closeable(SerialRunner):
            closed = False

            def close(self):
                self.closed = True

        inner = Closeable()
        FaultInjectingRunner(inner, FaultInjector()).close()
        assert inner.closed

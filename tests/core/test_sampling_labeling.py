"""Tests for boosted sampling and the labeling loop."""

from __future__ import annotations

import random

import pytest

from repro.core.labeling import LabelingQueue, OracleLabeler
from repro.core.sampling import BoostedRandomSampler
from repro.data.tweet import Tweet, UserProfile
from repro.streamml.instance import (
    ClassifiedBlock,
    ClassifiedInstance,
    Instance,
)


def _classified(predicted, tweet_id="t"):
    return ClassifiedInstance(
        instance=Instance(x=(0.0,), tweet_id=tweet_id),
        predicted=predicted,
        proba=(0.5, 0.5),
    )


class TestBoostedRandomSampler:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BoostedRandomSampler(capacity=0)
        with pytest.raises(ValueError):
            BoostedRandomSampler(boost=0.0)

    def test_fills_to_capacity(self):
        sampler = BoostedRandomSampler(capacity=10)
        for i in range(5):
            sampler.offer(_classified(0, tweet_id=str(i)))
        assert len(sampler.sample()) == 5
        for i in range(100):
            sampler.offer(_classified(0, tweet_id=f"b{i}"))
        assert len(sampler.sample()) == 10

    def test_boost_overrepresents_minority(self):
        rng = random.Random(0)
        sampler = BoostedRandomSampler(capacity=200, boost=8.0, seed=1)
        minority_rate = 0.05
        for i in range(20_000):
            predicted = 1 if rng.random() < minority_rate else 0
            sampler.offer(_classified(predicted, tweet_id=str(i)))
        fraction = sampler.aggressive_fraction_in_sample
        # 5% base rate boosted 8x -> expect ~30% in sample.
        assert fraction > 0.15

    def test_unboosted_matches_base_rate(self):
        rng = random.Random(2)
        sampler = BoostedRandomSampler(capacity=300, boost=1.0, seed=3)
        for i in range(20_000):
            predicted = 1 if rng.random() < 0.1 else 0
            sampler.offer(_classified(predicted, tweet_id=str(i)))
        assert sampler.aggressive_fraction_in_sample == pytest.approx(0.1, abs=0.06)

    def test_drain_resets(self):
        sampler = BoostedRandomSampler(capacity=5)
        for i in range(10):
            sampler.offer(_classified(0, tweet_id=str(i)))
        drained = sampler.drain()
        assert len(drained) == 5
        assert sampler.sample() == []

    def test_counters(self):
        sampler = BoostedRandomSampler(capacity=5)
        sampler.offer(_classified(1))
        sampler.offer(_classified(0))
        assert sampler.n_offered == 2
        assert sampler.n_aggressive_offered == 1

    def test_offer_many_matches_per_instance_offers(self):
        items = [
            _classified(1 if i % 7 == 0 else 0, tweet_id=str(i))
            for i in range(500)
        ]
        batched = BoostedRandomSampler(capacity=20, seed=9)
        batched.offer_many(
            ClassifiedBlock(
                [item.instance.x for item in items],
                [item.proba for item in items],
                [item.predicted for item in items],
                [item.instance.timestamp for item in items],
                [item.instance.tweet_id for item in items],
            )
        )
        one_by_one = BoostedRandomSampler(capacity=20, seed=9)
        for item in items:
            one_by_one.offer(item)
        assert batched.n_offered == one_by_one.n_offered == 500
        assert [item.instance.tweet_id for item in batched.sample()] == [
            item.instance.tweet_id for item in one_by_one.sample()
        ]
        assert batched._heap == one_by_one._heap
        assert batched.n_aggressive_offered == one_by_one.n_aggressive_offered


def _tweet(tweet_id, label=None):
    return Tweet(
        tweet_id=tweet_id,
        text="text",
        created_at=0.0,
        user=UserProfile(user_id="0"),
        label=label,
    )


class TestOracleLabeler:
    def test_returns_truth(self):
        labeler = OracleLabeler({"a": "abusive"})
        assert labeler.label(_tweet("a")) == "abusive"

    def test_unknown_returns_none(self):
        assert OracleLabeler({}).label(_tweet("zz")) is None

    def test_error_injection(self):
        labeler = OracleLabeler(
            {str(i): "abusive" for i in range(10)}, error_rate=0.5
        )
        labels = [labeler.label(_tweet(str(i))) for i in range(10)]
        assert labels.count("normal") == 5

    def test_invalid_error_rate(self):
        with pytest.raises(ValueError):
            OracleLabeler({}, error_rate=1.0)


class TestLabelingQueue:
    def test_fifo_processing(self):
        queue = LabelingQueue()
        queue.submit_many([_tweet("a"), _tweet("b")])
        labeler = OracleLabeler({"a": "normal", "b": "abusive"})
        labeled = queue.process(labeler)
        assert [t.tweet_id for t in labeled] == ["a", "b"]
        assert [t.label for t in labeled] == ["normal", "abusive"]
        assert queue.pending == 0

    def test_limit(self):
        queue = LabelingQueue()
        queue.submit_many([_tweet(str(i)) for i in range(5)])
        labeler = OracleLabeler({str(i): "normal" for i in range(5)})
        labeled = queue.process(labeler, limit=2)
        assert len(labeled) == 2
        assert queue.pending == 3

    def test_undecidable_dropped(self):
        queue = LabelingQueue()
        queue.submit(_tweet("known"))
        queue.submit(_tweet("unknown"))
        labeled = queue.process(OracleLabeler({"known": "normal"}))
        assert len(labeled) == 1
        assert queue.n_dropped == 1

    def test_max_pending_drops_oldest(self):
        queue = LabelingQueue(max_pending=3)
        for i in range(5):
            queue.submit(_tweet(str(i)))
        assert queue.pending == 3
        assert queue.n_dropped == 2

    def test_invalid_max_pending(self):
        with pytest.raises(ValueError):
            LabelingQueue(max_pending=0)

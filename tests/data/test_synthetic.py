"""Tests for the calibrated synthetic abusive dataset."""

from __future__ import annotations

import statistics

import pytest

from repro.data.synthetic import (
    ABUSIVE,
    CLASS_NAMES,
    HATEFUL,
    NORMAL,
    PAPER_CLASS_COUNTS,
    PAPER_TOTAL,
    AbusiveDatasetGenerator,
    DriftConfig,
)
from repro.data.vocab import emerging_insults
from repro.text.lexicons import SWEAR_WORDS
from repro.text.tokenizer import words


@pytest.fixture(scope="module")
def stream():
    return AbusiveDatasetGenerator(n_tweets=6000, seed=5).generate_list()


def _by_label(stream):
    groups = {name: [] for name in CLASS_NAMES}
    for tweet in stream:
        groups[tweet.label].append(tweet)
    return groups


class TestShape:
    def test_default_matches_paper_total(self):
        gen = AbusiveDatasetGenerator()
        assert gen.n_tweets == PAPER_TOTAL == 85_984
        assert gen.class_counts == PAPER_CLASS_COUNTS

    def test_scaled_proportions(self):
        gen = AbusiveDatasetGenerator(n_tweets=10_000)
        normal, abusive, hateful = gen.class_counts
        assert normal + abusive + hateful == 10_000
        assert abusive / 10_000 == pytest.approx(27179 / PAPER_TOTAL, abs=0.01)
        assert hateful / 10_000 == pytest.approx(4970 / PAPER_TOTAL, abs=0.01)

    def test_generates_requested_count(self, stream):
        assert len(stream) == 6000

    def test_timestamps_sorted(self, stream):
        times = [t.created_at for t in stream]
        assert times == sorted(times)

    def test_ten_days(self, stream):
        start = AbusiveDatasetGenerator(n_tweets=6000, seed=5).start_time
        days = {t.day_index(start) for t in stream}
        assert days == set(range(10))

    def test_all_labeled(self, stream):
        assert all(t.label in CLASS_NAMES for t in stream)

    def test_unique_tweet_ids(self, stream):
        ids = [t.tweet_id for t in stream]
        assert len(set(ids)) == len(ids)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            AbusiveDatasetGenerator(n_tweets=5, n_days=10)
        with pytest.raises(ValueError):
            AbusiveDatasetGenerator(n_days=0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = AbusiveDatasetGenerator(n_tweets=300, seed=9).generate_list()
        b = AbusiveDatasetGenerator(n_tweets=300, seed=9).generate_list()
        assert [t.text for t in a] == [t.text for t in b]

    def test_different_seed_differs(self):
        a = AbusiveDatasetGenerator(n_tweets=300, seed=1).generate_list()
        b = AbusiveDatasetGenerator(n_tweets=300, seed=2).generate_list()
        assert [t.text for t in a] != [t.text for t in b]


class TestCalibration:
    """Per-class statistics should track Fig. 4 of the paper."""

    def test_swear_word_ordering(self, stream):
        groups = _by_label(stream)
        means = {
            name: statistics.mean(
                sum(1 for w in words(t.text) if w in SWEAR_WORDS)
                for t in tweets
            )
            for name, tweets in groups.items()
        }
        # Paper: abusive 2.54 > hateful 1.84 >> normal 0.10.
        assert means["abusive"] > means["hateful"] > means["normal"]
        assert means["normal"] < 0.35

    def test_account_age_ordering(self, stream):
        groups = _by_label(stream)
        means = {
            name: statistics.mean(
                t.user.account_age_days(t.created_at) for t in tweets
            )
            for name, tweets in groups.items()
        }
        # Paper: normal 1487.74 > hateful 1379.95 > abusive 1291.97.
        assert means["normal"] > means["hateful"] > means["abusive"]

    def test_uppercase_ordering(self, stream):
        groups = _by_label(stream)

        def upper_mean(tweets):
            from repro.text.tokenizer import tokenize

            return statistics.mean(
                sum(1 for tok in tokenize(t.text) if tok.is_uppercase_word)
                for t in tweets
            )

        means = {name: upper_mean(tweets) for name, tweets in groups.items()}
        # Paper: abusive 1.84 > hateful 1.57 > normal 0.96.
        assert means["abusive"] > means["normal"]
        assert means["hateful"] > means["normal"]

    def test_words_per_sentence_ordering(self, stream):
        from repro.text.analysis import analyze

        groups = _by_label(stream)

        def wps(tweets):
            values = []
            for t in tweets:
                n_sentences = analyze(t.text)[5]
                if n_sentences:
                    values.append(len(words(t.text)) / n_sentences)
            return statistics.mean(values)

        # Paper: normal 16.66 > hateful 15.93 > abusive 12.66.
        assert wps(groups["normal"]) > wps(groups["abusive"])


class TestDrift:
    def test_emerging_pool_disjoint_from_seed(self):
        assert not (set(emerging_insults()) & SWEAR_WORDS)

    def test_emerging_words_increase_over_days(self):
        gen = AbusiveDatasetGenerator(n_tweets=8000, seed=3)
        days = gen.generate_days()
        emerging = set(emerging_insults())

        def emerging_rate(tweets):
            aggressive = [t for t in tweets if t.label != "normal"]
            hits = sum(
                1
                for t in aggressive
                for w in words(t.text)
                if w in emerging
            )
            return hits / max(len(aggressive), 1)

        early = emerging_rate(days[0] + days[1])
        late = emerging_rate(days[8] + days[9])
        assert late > early * 1.5

    def test_drift_disabled(self):
        gen = AbusiveDatasetGenerator(
            n_tweets=2000, seed=3, drift=DriftConfig(enabled=False)
        )
        emerging = set(emerging_insults())
        hits = sum(
            1
            for t in gen.generate()
            for w in words(t.text)
            if w in emerging
        )
        assert hits == 0


class TestBinaryMapping:

    def test_generate_days_partition(self):
        gen = AbusiveDatasetGenerator(n_tweets=1000, seed=4)
        days = gen.generate_days()
        assert sum(len(d) for d in days) == 1000
        assert len(days) == 10

"""Tests for the adaptive bag-of-words."""

from __future__ import annotations

import pytest

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.text.lexicons import swear_words


class TestInitialization:
    def test_seeded_with_347_swears(self):
        bow = AdaptiveBagOfWords()
        assert len(bow) == 347

    def test_custom_seed_words(self):
        bow = AdaptiveBagOfWords(seed_words=["alpha", "beta"])
        assert len(bow) == 2
        assert "alpha" in bow

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AdaptiveBagOfWords(update_interval=0)
        with pytest.raises(ValueError):
            AdaptiveBagOfWords(decay=0.0)


class TestCounting:
    def test_count_matches(self):
        bow = AdaptiveBagOfWords(seed_words=["bad", "worse"])
        assert bow.count_matches(["bad", "good", "worse", "bad"]) == 3

    def test_count_empty(self):
        assert AdaptiveBagOfWords().count_matches([]) == 0


class TestAdaptation:
    def _feed(self, bow, word, aggressive_tweets, normal_tweets):
        for _ in range(aggressive_tweets):
            bow.update([word, "filler"], is_aggressive=True)
        for _ in range(normal_tweets):
            bow.update(["other", "filler"], is_aggressive=False)

    def test_adds_trending_aggressive_word(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=100, add_min_count=8
        )
        self._feed(bow, "newslur", aggressive_tweets=50, normal_tweets=50)
        assert "newslur" in bow

    def test_does_not_add_balanced_word(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=100, add_min_count=8
        )
        # "filler" appears in both groups equally -> must not be added.
        self._feed(bow, "whatever", aggressive_tweets=50, normal_tweets=50)
        assert "filler" not in bow

    def test_rare_word_not_added(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=100, add_min_count=8
        )
        for i in range(100):
            tokens = ["rareword"] if i == 0 else ["common"]
            bow.update(tokens, is_aggressive=True)
        assert "rareword" not in bow

    def test_removes_word_that_goes_mainstream(self):
        bow = AdaptiveBagOfWords(
            seed_words=["fad"],
            update_interval=200,
            remove_min_count=20,
            remove_ratio=2.0,
        )
        # "fad" becomes very popular in normal tweets, absent in aggressive.
        for _ in range(100):
            bow.update(["fad"], is_aggressive=False)
        for _ in range(100):
            bow.update(["insult"], is_aggressive=True)
        assert "fad" not in bow
        assert bow.n_removed >= 1

    def test_short_tokens_ignored(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=50, add_min_count=5,
            min_word_length=3,
        )
        for _ in range(50):
            bow.update(["xx"], is_aggressive=True)
        assert "xx" not in bow

    def test_size_history_recorded(self):
        bow = AdaptiveBagOfWords(seed_words=["seed"], update_interval=10)
        for i in range(35):
            bow.update(["word"], is_aggressive=bool(i % 2))
        assert len(bow.size_history) == 3
        assert all(isinstance(point, tuple) for point in bow.size_history)

    def test_decay_fades_old_counts(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=10, decay=0.5
        )
        bow.update(["oldword"], is_aggressive=True)
        for _ in range(60):
            bow.update(["filler"], is_aggressive=False)
        assert bow._aggressive_counts.get("oldword", 0.0) < 1.0


class TestDistributedMerge:

    def test_absorb_combines_counts(self):
        bow = AdaptiveBagOfWords(
            seed_words=["seed"], update_interval=10 ** 9, add_min_count=8
        )
        # Each partition's delta, built the way the micro-batch
        # partitions build theirs: the driver's words, no maintenance.
        deltas = [
            AdaptiveBagOfWords(seed_words=bow.words, update_interval=10 ** 9)
            for _ in range(2)
        ]
        for delta in deltas:
            for _ in range(30):
                delta.update(["emergent"], is_aggressive=True)
                delta.update(["plain"], is_aggressive=False)
        for delta in deltas:
            bow.absorb(delta)
        bow.maintain()
        assert "emergent" in bow
        assert "plain" not in bow


class TestFixedBagOfWords:
    def test_never_changes(self):
        bow = FixedBagOfWords(seed_words=["only"])
        bow.update(["newword"] * 100, is_aggressive=True)
        bow.maintain()
        assert len(bow) == 1

    def test_default_seed_is_swear_list(self):
        assert len(FixedBagOfWords()) == len(swear_words())

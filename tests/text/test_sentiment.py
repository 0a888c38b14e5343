"""Tests for the SentiStrength-like sentiment analyzer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.sentiment import SentimentAnalyzer
from repro.text.tokenizer import tokenize


@pytest.fixture(scope="module")
def analyzer() -> SentimentAnalyzer:
    return SentimentAnalyzer()


class TestScoreRanges:
    def test_neutral_text(self, analyzer):
        score = analyzer.score("the table has four legs")
        assert score.positive == 1
        assert score.negative == -1

    def test_empty_text(self, analyzer):
        score = analyzer.score("")
        assert (score.positive, score.negative) == (1, -1)

    @given(st.text(max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_scale_bounds_hold(self, text):
        score = SentimentAnalyzer().score(text)
        assert 1 <= score.positive <= 5
        assert -5 <= score.negative <= -1


class TestPolarity:
    def test_positive_text(self, analyzer):
        score = analyzer.score("what a wonderful lovely day")
        assert score.positive >= 3
        assert score.positive > -score.negative

    def test_negative_text(self, analyzer):
        score = analyzer.score("you are a disgusting idiot")
        assert score.negative <= -3
        assert -score.negative > score.positive

    def test_mixed_text_keeps_both(self, analyzer):
        score = analyzer.score("the food was wonderful but the service was awful")
        assert score.positive >= 3
        assert score.negative <= -3


class TestModifiers:
    def test_booster_amplifies(self, analyzer):
        plain = analyzer.score("this is good")
        boosted = analyzer.score("this is very good")
        assert boosted.positive == plain.positive + 1

    def test_dampener_weakens(self, analyzer):
        plain = analyzer.score("this is great")
        damped = analyzer.score("this is slightly great")
        assert damped.positive == plain.positive - 1

    def test_negation_flips(self, analyzer):
        negated = analyzer.score("this is not good")
        assert negated.negative < -1
        assert negated.positive == 1

    def test_uppercase_boosts(self, analyzer):
        plain = analyzer.score("this is bad")
        shouted = analyzer.score("this is BAD")
        assert shouted.negative == plain.negative - 1

    def test_exclamation_boosts_dominant_polarity(self, analyzer):
        plain = analyzer.score("this is good")
        excited = analyzer.score("this is good!")
        assert excited.positive == plain.positive + 1

    def test_repeated_letters_boost(self, analyzer):
        plain = analyzer.score("i am sad")
        emphasized = analyzer.score("i am saaaad")
        assert emphasized.negative <= plain.negative

    def test_swear_word_as_booster(self, analyzer):
        plain = analyzer.score("this is awful")
        sworn = analyzer.score("this is fucking awful")
        assert sworn.negative <= plain.negative


def _strength(word: str) -> int:
    (token,) = tokenize(word)
    return token.strength


class TestWordStrength:
    def test_unknown_word_zero(self):
        assert _strength("zxqw") == 0

    def test_known_word(self):
        assert _strength("love") > 0

    def test_case_insensitive(self):
        assert _strength("LOVE") == _strength("love")

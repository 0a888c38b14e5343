"""Tests for tweet-text preprocessing."""

from __future__ import annotations

from repro.core.preprocessing import (
    TWITTER_ABBREVIATIONS,
    preprocess_tokens,
    raw_word_tokens,
)
from repro.text.tokenizer import TokenType, tokenize


def preprocess(text: str) -> str:
    """The kept word view of ``text``, space-joined."""
    return " ".join(token.text for token in preprocess_tokens(tokenize(text)))


class TestPreprocess:
    def test_removes_urls(self):
        assert "http" not in preprocess("see https://t.co/abc now")

    def test_removes_mentions(self):
        assert "@" not in preprocess("@alex hello there")

    def test_removes_hashtags(self):
        assert "#" not in preprocess("so happy #blessed")

    def test_removes_numbers(self):
        assert "42" not in preprocess("scored 42 points")

    def test_removes_punctuation(self):
        cleaned = preprocess("wow!!! really?? yes...")
        assert "!" not in cleaned and "?" not in cleaned and "." not in cleaned

    def test_removes_rt_abbreviation(self):
        cleaned = preprocess("RT this is a retweet")
        assert cleaned.split()[0] == "this"

    def test_case_preserved(self):
        assert "SHOUTING" in preprocess("stop SHOUTING please")

    def test_condenses_whitespace(self):
        cleaned = preprocess("a   lot\t\tof     space")
        assert "  " not in cleaned

    def test_empty(self):
        assert preprocess("") == ""

    def test_all_abbreviations_lowercase(self):
        assert all(a == a.lower() for a in TWITTER_ABBREVIATIONS)


class TestTokenViews:
    def test_preprocess_tokens_keeps_only_words(self):
        tokens = preprocess_tokens(tokenize("@a word #tag http://x 12 :)"))
        assert [t.text for t in tokens] == ["word"]

    def test_raw_view_keeps_urls_and_tags(self):
        tokens = raw_word_tokens(tokenize("@a word #tag http://x 12 :)"))
        types = {t.type for t in tokens}
        assert TokenType.URL in types
        assert TokenType.HASHTAG in types
        assert TokenType.MENTION in types
        assert TokenType.NUMBER in types
        assert TokenType.EMOTICON not in types

    def test_raw_view_drops_punctuation(self):
        tokens = raw_word_tokens(tokenize("hello!!!"))
        assert [t.text for t in tokens] == ["hello"]

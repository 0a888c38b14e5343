"""Tests for the tweet tokenizer."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.tokenizer import (
    Token,
    TokenType,
    tokenize,
    words,
)


class TestTokenTypes:
    def test_url_http(self):
        tokens = tokenize("check http://example.com/page now")
        assert tokens[1].type is TokenType.URL

    def test_url_https_tco(self):
        tokens = tokenize("see https://t.co/a1b2c3")
        assert tokens[-1].type is TokenType.URL

    def test_mention(self):
        tokens = tokenize("@alex hello")
        assert tokens[0].type is TokenType.MENTION
        assert tokens[0].text == "@alex"

    def test_hashtag(self):
        tokens = tokenize("so #blessed today")
        assert tokens[1].type is TokenType.HASHTAG

    def test_number(self):
        tokens = tokenize("scored 42 points")
        assert tokens[1].type is TokenType.NUMBER

    def test_decimal_number(self):
        tokens = tokenize("pi is 3.14 roughly")
        assert any(
            t.type is TokenType.NUMBER and t.text == "3.14" for t in tokens
        )

    def test_emoticon(self):
        tokens = tokenize("nice :) really")
        assert any(t.type is TokenType.EMOTICON for t in tokens)

    def test_punctuation(self):
        tokens = tokenize("wow!!!")
        assert tokens[-1].type is TokenType.PUNCTUATION

    def test_apostrophe_word(self):
        tokens = tokenize("don't stop")
        assert tokens[0].text == "don't"
        assert tokens[0].type is TokenType.WORD

    def test_hyphenated_word(self):
        tokens = tokenize("state-of-the-art stuff")
        assert tokens[0].text == "state-of-the-art"

    def test_obfuscated_swear_stays_one_word(self):
        tokens = tokenize("you sh1t head")
        assert any(t.text == "sh1t" and t.is_word for t in tokens)

    def test_empty_string(self):
        assert tokenize("") == []

    def test_whitespace_only(self):
        assert tokenize("  \t \n ") == []


class TestTokenProperties:
    def test_uppercase_word(self):
        token = Token("HELLO", TokenType.WORD)
        assert token.is_uppercase_word

    def test_single_letter_not_uppercase_word(self):
        token = Token("I", TokenType.WORD)
        assert not token.is_uppercase_word

    def test_mixed_case_not_uppercase(self):
        assert not Token("Hello", TokenType.WORD).is_uppercase_word

    def test_lower(self):
        assert Token("HeLLo", TokenType.WORD).lower == "hello"


class TestWords:
    def test_filters_non_words(self):
        result = words("@alex GOOD day #sun https://t.co/x 42")
        assert result == ["good", "day"]


def _n_sentences(text: str) -> int:
    """The sentence count the feature path reads (one text walk)."""
    from repro.text.analysis import analyze

    return analyze(text)[5]


class TestSplitSentences:
    def test_single_sentence(self):
        assert _n_sentences("hello world") == 1

    def test_multiple_terminators(self):
        assert _n_sentences("one. two! three?") == 3

    def test_ellipsis_is_one_boundary(self):
        assert _n_sentences("wait... what") == 2

    def test_empty(self):
        assert _n_sentences("") == 0


class TestRobustness:
    @given(st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes(self, text):
        tokens = tokenize(text)
        for token in tokens:
            assert token.text
            assert isinstance(token.type, TokenType)

    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_covers_non_space_ascii(self, text):
        # Every non-whitespace character lands in some token.
        tokens = tokenize(text)
        joined = "".join(t.text for t in tokens)
        for char in text:
            if not char.isspace():
                assert char in joined

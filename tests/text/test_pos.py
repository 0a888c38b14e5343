"""Tests for the POS tagger, read where the feature path reads it: the
``pos`` field of each token record."""

from __future__ import annotations

from repro.text.pos import PosTag
from repro.text.tokenizer import tokenize


def _tag_word(word: str) -> PosTag:
    (token,) = tokenize(word)
    return token.pos


def _tag_text(text: str) -> list:
    return [token.pos for token in tokenize(text)]


class TestLexiconTags:
    def test_adjective(self):
        assert _tag_word("good") is PosTag.ADJECTIVE

    def test_adverb(self):
        assert _tag_word("really") is PosTag.ADVERB

    def test_verb(self):
        assert _tag_word("running") is PosTag.VERB

    def test_pronoun(self):
        assert _tag_word("they") is PosTag.PRONOUN

    def test_determiner(self):
        assert _tag_word("the") is PosTag.DETERMINER

    def test_preposition(self):
        assert _tag_word("between") is PosTag.PREPOSITION

    def test_conjunction(self):
        assert _tag_word("because") is PosTag.CONJUNCTION

    def test_case_insensitive(self):
        assert _tag_word("GOOD") is PosTag.ADJECTIVE


class TestSuffixRules:
    def test_ly_adverb(self):
        assert _tag_word("gracefully") is PosTag.ADVERB

    def test_ous_adjective(self):
        assert _tag_word("hazardous") is PosTag.ADJECTIVE

    def test_ful_adjective(self):
        assert _tag_word("colorful") is PosTag.ADJECTIVE

    def test_able_adjective(self):
        assert _tag_word("readable") is PosTag.ADJECTIVE

    def test_ize_verb(self):
        assert _tag_word("optimize") is PosTag.VERB

    def test_unknown_defaults_to_noun(self):
        assert _tag_word("flibbertigibbet") is PosTag.NOUN

    def test_short_unknown_is_other(self):
        assert _tag_word("zq") is PosTag.OTHER


class TestTextTagging:
    def test_numbers_tagged_num(self):
        tags = _tag_text("scored 42 points")
        assert PosTag.NUMBER in tags

    def test_non_words_tagged_other(self):
        tags = _tag_text("hello @alex!")
        assert PosTag.OTHER in tags

    def test_count(self):
        text = "the happy dog runs quickly and barks loudly"
        tags = _tag_text(text)
        assert tags.count(PosTag.ADVERB) == 2
        assert tags.count(PosTag.ADJECTIVE) == 1

    def test_empty_text(self):
        assert _tag_text("") == []

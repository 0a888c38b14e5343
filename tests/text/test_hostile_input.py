"""Hostile input against the tokenizer, its word table and the extractor.

Time limits are an order of magnitude above what the probes take on a
slow shared core; they exist to fail on quadratic behaviour (a 50 k-char
backtracking probe that goes quadratic takes minutes, not seconds).
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

import pytest

from repro.core.adaptive_bow import FixedBagOfWords
from repro.core.features import FeatureExtractor
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet
from repro.text import tokenizer
from repro.text.deobfuscate import Deobfuscator
from repro.text.tokenizer import Token, TokenType, tokenize

LIMIT_S = 10.0

BACKTRACKING_PROBES = {
    "word then dashes": "a" + "-" * 50_000,
    "word then quotes": "a" + "'" * 50_000 + " b",
    "www runs": "www." * 20_000,
    "http stubs": "http:// " * 10_000 + "https://" * 5_000,
    "bangs": "!" * 50_000,
    "blank run": " " * 50_000,
    "trailing blanks": "a" + " \t  " * 12_500,
    "blank runs between words": ("a" + " " * 1_000) * 50,
    "separators": "a" + "\x1c\x1d\x1e\x1f" * 12_500,
    "digits and commas": "1," * 25_000,
    "emoticon stubs": ":-" * 25_000 + "x" * 10 + "D",
    "elongation": "so" + "o" * 50_000 + " baa" + "a" * 50_000 + "d",
}


def _timed(function, *args):
    start = perf_counter()
    result = function(*args)
    return result, perf_counter() - start


class TestBoundedTime:
    @pytest.mark.parametrize("name", sorted(BACKTRACKING_PROBES))
    def test_backtracking_probe(self, name):
        text = BACKTRACKING_PROBES[name]
        tokens, elapsed = _timed(tokenize, text)
        assert elapsed < LIMIT_S
        assert "".join(t.text for t in tokens) == "".join(text.split())

    def test_two_megabyte_tweet(self):
        text = "you absolute MORON!!! http://t.co/x #fail @you " * 43_000
        assert len(text) > 2_000_000
        tokens, elapsed = _timed(tokenize, text)
        assert elapsed < LIMIT_S
        assert len(tokens) == 43_000 * 7
        extractor = FeatureExtractor(deobfuscate=True)
        tweet = Tweet(tweet_id="big", text=text, created_at=0.0)
        instance, elapsed = _timed(extractor.extract, tweet)
        assert elapsed < LIMIT_S
        assert instance.x[5] == instance.x[7] == 43_000.0  # hashtags, URLs

    def test_two_megabyte_single_word(self):
        tokens, elapsed = _timed(tokenize, "a" * 2_000_000)
        assert elapsed < LIMIT_S
        assert [t.length for t in tokens] == [2_000_000]
        assert "a" * 2_000_000 not in tokenizer._WORD_TABLE

    def test_two_hundred_thousand_unique_words(self):
        text = " ".join(f"w{i}x" for i in range(200_000))
        tokens, elapsed = _timed(tokenize, text)
        assert elapsed < LIMIT_S
        assert len(tokens) == 200_000
        assert len(tokenizer._WORD_TABLE) <= tokenizer.WORD_TABLE_LIMIT
        assert tokenize("w7x GOOD")[1].strength > 0

    def test_deobfuscator_on_separator_and_repeat_runs(self):
        deobfuscator = Deobfuscator()
        for word in ("i" + ".d" * 25_000, "f" + "u" * 50_000 + "ck", "$" * 50_000):
            _, elapsed = _timed(deobfuscator.deobfuscate, word)
            assert elapsed < LIMIT_S
        assert len(deobfuscator._memo) == 0  # oversize words are not stored


class TestWordTable:
    def test_never_exceeds_its_bound_and_survives_a_clear(self, monkeypatch):
        monkeypatch.setattr(tokenizer, "WORD_TABLE_LIMIT", 8)
        table = tokenizer._WORD_TABLE
        table.clear()
        for round_ in range(5):
            for i in range(30):
                tokens = tokenize(f"very BAD word{round_}x{i} not good, smh!")
                assert len(table) <= 8
                # Fresh after a clear or served from the table, a token
                # is the same record a hand-built one is.
                for token in tokens:
                    fresh = Token(token.text, token.type)
                    assert token == fresh
                    for field in Token.__slots__:
                        assert getattr(token, field) == getattr(fresh, field)
        assert tokens[1].is_uppercase_word and tokens[1].strength < 0
        assert tokens[3].negator and not tokens[6].kept

    def test_only_words_and_punctuation_are_interned(self):
        tokenizer._WORD_TABLE.clear()
        tokenize("hello, @someone #tag http://t.co/x 42 3.14 :) ☃ bye!")
        kinds = {t.type for t in tokenizer._WORD_TABLE.values()}
        assert kinds == {TokenType.WORD, TokenType.PUNCTUATION}
        assert set(tokenizer._WORD_TABLE) == {"hello", ",", "bye", "!"}

    def test_shared_tokens_refuse_mutation(self):
        token = tokenize("hello")[0]
        assert tokenize("hello")[0] is token
        with pytest.raises(AttributeError):
            token.lower = "goodbye"
        with pytest.raises(AttributeError):
            del token.strength
        with pytest.raises(AttributeError):
            token.extra = 1


class TestThreads:
    def test_concurrent_extraction_matches_serial(self):
        tweets = AbusiveDatasetGenerator(n_tweets=600, seed=13).generate_list()

        def vectors():
            extractor = FeatureExtractor(bag_of_words=FixedBagOfWords())
            return [extractor.extract(t, update_bow=False).x for t in tweets]

        expected = vectors()
        results = {}

        def work(name):
            results[name] = vectors()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # More threads than cores, all missing on an emptied table.
            tokenizer._WORD_TABLE.clear()
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 6
        for got in results.values():
            assert got == expected

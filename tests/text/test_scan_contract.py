"""The scan contract: ``findall`` + table ``map`` ≡ the ``finditer`` loop.

:func:`repro.text.tokenizer.tokenize` runs the token scan as two C
loops — one one-group ``findall`` for the surfaces, one ``map`` through
the word table, whose ``__missing__`` classifies a surface *out of
context* with ``_TOKEN_PATTERN.match``. Five pins:

(a) a tests-only reference tokenizer — the ``finditer`` loop and the
    pattern it ran, copied verbatim from the commit before the scan
    moved into C, sharing no template with ``src/`` — yields the same
    ``(text, type)`` sequence on every generator, under
    hypothesis-generated unicode and on the hostile probes, inside the
    same time bounds;
(b) classification is context-free: every surface, matched on its own,
    is consumed whole by the alternative that produced it in context;
(c) the table keeps its rule (only WORD/PUNCTUATION stored, nothing
    longer than ``MAX_INTERNED_LENGTH``, clear-on-full, clearing changes
    no result);
(d) threads racing on a cleared table agree with a serial run;
(e) the cost is what the design says, counted not timed: a warm table
    builds no ``Token`` and runs no classifying match for words and
    punctuation, and exactly one of each per occurrence of the kinds
    that are never stored.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import re
import sys
import threading
from time import perf_counter
from typing import List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.offensive import OffensiveDatasetGenerator
from repro.data.sarcasm import SarcasmDatasetGenerator
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.text import tokenizer
from repro.text.tokenizer import Token, TokenType, tokenize

from tests.text.test_feature_contract import _TEXTS, PROBES
from tests.text.test_hostile_input import BACKTRACKING_PROBES, LIMIT_S

# -- (a) the reference: the parent commit's pattern and loop, verbatim -------

_EMOTICONS = (
    ":)", ":-)", ":(", ":-(", ":D", ":-D", ";)", ";-)", ":P", ":-P",
    ":/", ":-/", ":|", ":-|", ":o", ":O", "<3", "</3", "xD", "XD",
    ":'(", ":')",
)

_URL = r"https?://\S+|www\.\S+"

_REFERENCE_PATTERN = re.compile(
    r"""
    \s*(?:
    (?P<WORD>(?!%(url)s|%(letter_emoticon)s)
             [A-Za-z](?:[A-Za-z'*$0-9-]*[A-Za-z*$0-9])?)
  | (?P<URL>%(url)s)
  | (?P<MENTION>@\w+)
  | (?P<HASHTAG>\#\w+)
  | (?P<EMOTICON>%(emoticon)s)
  | (?P<NUMBER>\d+(?:[.,]\d+)*)
  | (?P<PUNCTUATION>[.!?,;:"'()\[\]{}…-]+)
  | (?P<SYMBOL>\S)
    )
    """
    % {
        "url": _URL,
        "emoticon": "|".join(re.escape(e) for e in _EMOTICONS),
        "letter_emoticon": "|".join(
            re.escape(e) for e in _EMOTICONS if e[0].isalpha()
        ),
    },
    re.VERBOSE,
)

_REFERENCE_TYPES = {
    index: TokenType[name]
    for name, index in _REFERENCE_PATTERN.groupindex.items()
}


def reference_tokenize(text: str) -> List[Tuple[str, TokenType]]:
    tokens = []
    append = tokens.append
    for match in _REFERENCE_PATTERN.finditer(text.rstrip()):
        group = match.lastindex
        surface = match.group(group)
        kind = _REFERENCE_TYPES[group]
        append((surface, kind))
    return tokens


def pairs(text: str) -> List[Tuple[str, TokenType]]:
    return [(token.text, token.type) for token in tokenize(text)]


@functools.lru_cache(maxsize=None)
def corpus() -> List[str]:
    """Every generator's texts plus the probes (shared: do not mutate)."""
    texts = [
        t.text for t in AbusiveDatasetGenerator(n_tweets=1500, seed=17).generate()
    ]
    texts += [
        s.tweet.text for s in SarcasmDatasetGenerator(n_tweets=400, seed=19).generate()
    ]
    texts += [
        t.text for t in OffensiveDatasetGenerator(n_tweets=400, seed=23).generate()
    ]
    return texts + list(PROBES)


#: Surfaces whose kind depends on a lookahead or on alternative order.
TRICKY = ("xD", "XDa", "axD", "www.", "www.x", "http:/x", "http://", "https://x",
          "4ss", "a55", ":)", "!;)", ";-)", "@", "#", "@_", "#1", "</3", "<3",
          "don't-", "a--", "1,000.5.", "…", "x", "'")

_SCAN_TEXTS = st.one_of(
    _TEXTS,
    st.lists(
        st.one_of(st.sampled_from(TRICKY), st.sampled_from((" ", "", "\n"))),
        max_size=10,
    ).map("".join),
)


class TestReferenceEquality:
    def test_generators_and_probes(self):
        for text in corpus():
            assert pairs(text) == reference_tokenize(text), text

    @given(text=_SCAN_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_hypothesis_unicode(self, text):
        assert pairs(text) == reference_tokenize(text)

    @pytest.mark.parametrize("name", sorted(BACKTRACKING_PROBES))
    def test_hostile_probes_inside_the_time_bound(self, name):
        text = BACKTRACKING_PROBES[name]
        start = perf_counter()
        got = pairs(text)
        assert perf_counter() - start < LIMIT_S
        assert got == reference_tokenize(text)

    def test_two_megabyte_inputs_inside_the_time_bound(self):
        for text in (
            "you absolute MORON!!! http://t.co/x #fail @you " * 43_000,
            "a" * 2_000_000,
            " ".join(f"w{i}x" for i in range(200_000)),
        ):
            start = perf_counter()
            got = pairs(text)
            assert perf_counter() - start < LIMIT_S
            assert got == reference_tokenize(text)


# -- (b) classification on a miss is context-free ----------------------------


def assert_context_free(text: str) -> None:
    in_context = reference_tokenize(text)
    assert pairs(text) == in_context
    for surface, kind in in_context:
        alone = tokenizer._TOKEN_PATTERN.match(surface)
        assert alone is not None and alone.end() == len(surface), surface
        assert tokenizer._TYPE_BY_GROUP[alone.lastindex] is kind, surface


class TestContextFreeClassification:
    @given(text=_SCAN_TEXTS)
    @settings(max_examples=500, deadline=None)
    def test_a_surface_alone_takes_the_alternative_it_took_in_context(
        self, text
    ):
        assert_context_free(text)

    def test_tricky_surfaces_alone_and_glued_to_each_other(self):
        for first in TRICKY:
            assert_context_free(first)
            for second in TRICKY:
                assert_context_free(first + second)
                assert_context_free(first + " " + second)

    def test_the_two_patterns_share_their_alternatives(self):
        # One template: the scanner is the classifier with its group
        # names dropped and one group around the lot.
        classifier = tokenizer._TOKEN_PATTERN
        scanner = tokenizer._surfaces.__self__
        assert scanner.groups == 1 and classifier.groups == len(TokenType)
        assert set(tokenizer._TYPE_BY_GROUP.values()) == set(TokenType)
        unnamed = re.sub(r"\(\?P<\w+>", "(?:", classifier.pattern)
        assert scanner.pattern == r"\s*(%s)" % unnamed


# -- (c) the table rule ------------------------------------------------------


class TestTableRule:
    def test_only_words_and_punctuation_up_to_the_length_bound(self):
        table = tokenizer._WORD_TABLE
        table.clear()
        long_word = "a" * (tokenizer.MAX_INTERNED_LENGTH + 1)
        edge_word = "b" * tokenizer.MAX_INTERNED_LENGTH
        long_bangs = "!" * (tokenizer.MAX_INTERNED_LENGTH + 1)
        for text in corpus() + [f"{long_word} {edge_word} {long_bangs} ok"]:
            tokenize(text)
        assert {t.type for t in table.values()} == {
            TokenType.WORD, TokenType.PUNCTUATION
        }
        assert all(key == token.text for key, token in table.items())
        assert max(map(len, table)) == tokenizer.MAX_INTERNED_LENGTH
        assert edge_word in table and "ok" in table
        assert long_word not in table and long_bangs not in table

    def test_clear_on_full(self, monkeypatch):
        monkeypatch.setattr(tokenizer, "WORD_TABLE_LIMIT", 5)
        table = tokenizer._WORD_TABLE
        table.clear()
        tokenize("one two three four five")
        assert len(table) == 5
        tokenize("six")
        assert set(table) == {"six"}

    def test_clearing_changes_no_result(self):
        texts = corpus()[:400]
        tokenizer._WORD_TABLE.clear()
        cold = [pairs(text) for text in texts]
        warm = [pairs(text) for text in texts]
        fields = [
            [getattr(t, f) for t in tokenize(text) for f in Token.__slots__]
            for text in texts
        ]
        tokenizer._WORD_TABLE.clear()
        assert cold == warm == [pairs(text) for text in texts]
        assert fields == [
            [getattr(t, f) for t in tokenize(text) for f in Token.__slots__]
            for text in texts
        ]


# -- (d) threads -------------------------------------------------------------


class TestThreads:
    def test_six_threads_on_a_cleared_table_equal_serial(self):
        texts = corpus()
        expected = {text: pairs(text) for text in texts}
        results = {}

        def work(seed: int) -> None:
            mine = list(texts)
            random.Random(seed).shuffle(mine)
            results[seed] = all(pairs(text) == expected[text] for text in mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            tokenizer._WORD_TABLE.clear()
            threads = [
                threading.Thread(target=work, args=(seed,)) for seed in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == {seed: True for seed in range(6)}


# -- (e) the cost, counted ---------------------------------------------------


@dataclasses.dataclass
class _Counts:
    tokens: int = 0
    matches: int = 0


@pytest.fixture
def counts(monkeypatch) -> _Counts:
    """Count ``Token`` constructions and classifying matches made by
    the tokenizer module (both are looked up as module globals on the
    miss path, so a patched name is the one that runs)."""
    counted = _Counts()
    pattern = tokenizer._TOKEN_PATTERN

    def counting_token(text, kind):
        counted.tokens += 1
        return Token(text, kind)

    class CountingPattern:
        @staticmethod
        def match(surface):
            counted.matches += 1
            return pattern.match(surface)

    monkeypatch.setattr(tokenizer, "Token", counting_token)
    monkeypatch.setattr(tokenizer, "_TOKEN_PATTERN", CountingPattern)
    return counted


class TestCountedCost:
    WORDS_AND_PUNCTUATION = "you are NOT a good person, are you?! no... (really)"
    NEVER_STORED = (
        "http://t.co/x", "www.example.com", "@someone", "#tag", "42", "3.14",
        ":)", "xD", "☃", "&",
    )

    def test_a_warm_table_builds_nothing_for_words_and_punctuation(self, counts):
        tokenizer._WORD_TABLE.clear()
        first = tokenize(self.WORDS_AND_PUNCTUATION)
        distinct = len({token.text for token in first})
        assert counts == _Counts(tokens=distinct, matches=distinct)
        again = tokenize(self.WORDS_AND_PUNCTUATION)
        assert counts == _Counts(tokens=distinct, matches=distinct)
        assert all(a is b for a, b in zip(first, again))

    def test_one_build_and_one_match_per_never_stored_occurrence(self, counts):
        text = "so " + " so ".join(self.NEVER_STORED) + " so"
        tokenize(text)  # warms "so"
        before = dataclasses.replace(counts)
        for repeat in (1, 2):
            tokens = tokenize(text)
            assert [t.text for t in tokens if t.text != "so"] == list(
                self.NEVER_STORED
            )
            n = repeat * len(self.NEVER_STORED)
            assert counts == _Counts(before.tokens + n, before.matches + n)

"""Tests for obfuscation normalization."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text.deobfuscate import Deobfuscator, candidate_forms


@pytest.fixture(scope="module")
def deobfuscator() -> Deobfuscator:
    return Deobfuscator()


class TestCandidateForms:
    def test_plain_word_single_form(self):
        assert candidate_forms("hello") == ["hello"]

    def test_leet_digits(self):
        assert "shit" in candidate_forms("sh1t")

    def test_symbol_substitution(self):
        assert "ass" in candidate_forms("a$$")

    def test_separator_padding(self):
        assert "idiot" in candidate_forms("i.d.i.o.t")

    def test_elongation(self):
        assert "fuck" in candidate_forms("fuuuuck")

    def test_combined_tricks(self):
        assert "shit" in candidate_forms("s.h.1.t")

    def test_lowercases(self):
        assert candidate_forms("HeLLo")[0] == "hello"


class TestDeobfuscator:
    def test_recovers_disguised_swear(self, deobfuscator):
        assert deobfuscator.deobfuscate("sh1t") == "shit"
        assert deobfuscator.deobfuscate("id1ot") == "idiot"
        assert deobfuscator.deobfuscate("fuuuck") == "fuck"

    def test_clean_words_untouched(self, deobfuscator):
        assert deobfuscator.deobfuscate("2nd") == "2nd"
        assert deobfuscator.deobfuscate("covid19") == "covid19"
        assert deobfuscator.deobfuscate("hello") == "hello"

    def test_already_canonical(self, deobfuscator):
        assert deobfuscator.deobfuscate("idiot") == "idiot"

    def test_disguised_match_flag(self, deobfuscator):
        # A disguised vocabulary word resolves; an innocent one is kept.
        assert deobfuscator.deobfuscate("1d1ot") == "idiot"
        assert deobfuscator.deobfuscate("table") == "table"

    def test_count_matches(self, deobfuscator):
        words = ["you", "sh1t", "idiot", "m0ron", "day"]
        assert deobfuscator.count_matches(words) == 3

    def test_custom_vocabulary(self):
        deobfuscator = Deobfuscator(vocabulary=["secret"])
        assert deobfuscator.deobfuscate("s3cr3t") == "secret"
        assert deobfuscator.deobfuscate("sh1t") == "sh1t"

    @given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                   min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_never_crashes_and_lowercases(self, word):
        deobfuscator = Deobfuscator()
        result = deobfuscator.deobfuscate(word)
        assert result == result.lower()


class TestMemo:
    def test_hit_miss_and_overflow(self, monkeypatch):
        from repro.text import deobfuscate as module, tokenizer

        calls = []
        candidate_forms = module.candidate_forms
        monkeypatch.setattr(
            module, "candidate_forms",
            lambda word: calls.append(word) or candidate_forms(word),
        )
        monkeypatch.setattr(tokenizer, "WORD_TABLE_LIMIT", 3)
        deobfuscator = Deobfuscator()
        assert deobfuscator.deobfuscate("sh1t") == "shit"  # miss
        assert deobfuscator.deobfuscate("sh1t") == "shit"  # hit
        assert deobfuscator.deobfuscate("Sh1t") == "shit"  # keyed by surface
        assert calls == ["sh1t", "Sh1t"]
        for word in ("table", "id1ot", "chair", "lamp"):
            deobfuscator.deobfuscate(word)
            assert len(deobfuscator._memo) <= 3
        # Cleared on reaching the bound: the early words resolve again,
        # to the same answers.
        assert "sh1t" not in deobfuscator._memo
        assert deobfuscator.deobfuscate("sh1t") == "shit"
        assert calls.count("sh1t") == 2

    def test_memos_are_per_instance(self):
        swears, secrets = Deobfuscator(), Deobfuscator(vocabulary=["secret"])
        assert swears.deobfuscate("s3cr3t") == "s3cr3t"
        assert secrets.deobfuscate("s3cr3t") == "secret"

"""Obfuscation normalization for evasion-resistant matching.

The paper's introduction notes that users "find innovative ways to
circumvent the rules ... by using new words or special text characters
to signify their aggression but avoid detection" [23]. The adaptive
bag-of-words handles genuinely *new* words; this module handles the
*disguised* ones: leetspeak digits ("sh1t"), symbol substitutions
("a$$"), separator padding ("i.d.i.o.t"), and elongation ("fuuuck") are
normalized back to a canonical form before lexicon matching.

``deobfuscate`` is intentionally conservative: it only rewrites a word
when the rewritten form hits the supplied vocabulary, so ordinary words
containing digits ("2nd", "covid19") pass through untouched.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from repro.text.lexicons import SWEAR_WORDS
from repro.text.tokenizer import remember

#: Common visually-similar substitutions used to dodge word filters.
CHARACTER_MAP = {
    "0": "o",
    "1": "i",
    "3": "e",
    "4": "a",
    "5": "s",
    "7": "t",
    "8": "b",
    "$": "s",
    "@": "a",
    "!": "i",
    "+": "t",
    "€": "e",
}

_SEPARATORS = re.compile(r"[.\-_*~'`´]")
_REPEATS = re.compile(r"(.)\1{2,}")


def _map_characters(word: str) -> str:
    return "".join(CHARACTER_MAP.get(ch, ch) for ch in word)


def _strip_separators(word: str) -> str:
    return _SEPARATORS.sub("", word)


def _squeeze(word: str, keep: int) -> str:
    """Collapse runs of 3+ identical characters down to ``keep``."""
    return _REPEATS.sub(lambda m: m.group(1) * keep, word)


def candidate_forms(word: str) -> List[str]:
    """Possible canonical forms of a word, most-conservative first."""
    lower = word.lower()
    forms = [lower]
    stripped = _strip_separators(lower)
    if stripped != lower:
        forms.append(stripped)
    mapped = _map_characters(stripped)
    if mapped != stripped:
        forms.append(mapped)
    for base in list(forms):
        squeezed_two = _squeeze(base, 2)
        squeezed_one = _squeeze(base, 1)
        if squeezed_two != base:
            forms.append(squeezed_two)
        if squeezed_one != squeezed_two:
            forms.append(squeezed_one)
    seen = dict.fromkeys(forms)
    return list(seen)


class Deobfuscator:
    """Vocabulary-anchored obfuscation normalizer.

    Args:
        vocabulary: canonical words worth recovering (defaults to the
            swear lexicon — the filter-evasion target). Fixed for the
            instance's lifetime: answers are memoized per word.
    """

    def __init__(self, vocabulary: Optional[Iterable[str]] = None) -> None:
        self.vocabulary: FrozenSet[str] = frozenset(
            vocabulary if vocabulary is not None else SWEAR_WORDS
        )
        #: word → canonical form, under the tokenizer's memo rule
        #: (bounded, cleared when full, oversize words not stored).
        self._memo: Dict[str, str] = {}

    def deobfuscate(self, word: str) -> str:
        """Canonical form of a word if one hits the vocabulary.

        Returns the lowercased original when no candidate matches, so
        the transformation never invents matches for clean words.
        """
        form = self._memo.get(word)
        if form is None:
            form = remember(self._memo, word, self._resolve(word))
        return form

    def _resolve(self, word: str) -> str:
        for form in candidate_forms(word):
            if form in self.vocabulary:
                return form
        return word.lower()

    def count_matches(self, words: Sequence[str]) -> int:
        """Vocabulary hits including disguised forms."""
        return sum(
            1 for word in words if self.deobfuscate(word) in self.vocabulary
        )

"""SentiStrength-like lexicon sentiment scorer.

SentiStrength reports, for a short text, a *positive* strength in
[+1, +5] and a *negative* strength in [-5, -1] (1 = neutral). This
module reimplements that behaviour with the AFINN-style lexicon in
:mod:`repro.text.lexicons` plus the standard modifiers:

* booster words amplify/dampen the next sentiment word by one level;
* negation words flip the polarity of the next sentiment word;
* repeated letters ("noooo") and exclamation marks boost by one level;
* all-caps sentiment words boost by one level.

The text's positive score is the maximum positive word strength and the
negative score the minimum negative word strength, exactly as
SentiStrength's default "max of each polarity" aggregation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from repro.text.lexicons import sentiment_lexicon

if TYPE_CHECKING:
    from repro.text.tokenizer import Token

_REPEATED_LETTERS = re.compile(r"(\w)\1{2,}")
_LEXICON = sentiment_lexicon()


@dataclass(frozen=True)
class SentimentScore:
    """Positive strength in [1, 5] and negative strength in [-5, -1]."""

    positive: int
    negative: int

    @property
    def net(self) -> int:
        """positive + negative: overall polarity in [-4, 4]."""
        return self.positive + self.negative

    @property
    def is_negative(self) -> bool:
        return -self.negative > self.positive

    @property
    def is_positive(self) -> bool:
        return self.positive > -self.negative


def _squeeze_repeats(word: str) -> str:
    """Collapse runs of 3+ identical letters to a single letter."""
    return _REPEATED_LETTERS.sub(r"\1", word)


def word_strength_lower(lower: str) -> int:
    """Base strength of an already-lowercased word (0 if unknown).

    Pure in the word and the sentiment lexicon. Not memoized here: the
    tokenizer evaluates it once per distinct surface form when it
    builds the word's record and stores it as ``Token.strength``.
    """
    if lower in _LEXICON:
        return _LEXICON[lower]
    squeezed = _squeeze_repeats(lower)
    if squeezed != lower and squeezed in _LEXICON:
        # Letter repetition signals emphasis: one level stronger.
        base = _LEXICON[squeezed]
        return _clamp(base + (1 if base > 0 else -1))
    return 0


class SentimentAnalyzer:
    """Scores short texts on the SentiStrength [-5, 5] dual scale."""

    def word_strength(self, word: str) -> int:
        """Base strength of a word (0 if not in the lexicon)."""
        return word_strength_lower(word.lower())

    def score_tokens(self, tokens: Sequence[Token]) -> SentimentScore:
        """Score a tokenized text."""
        return SentimentScore(*self.strengths(tokens))

    def strengths(self, tokens: Iterable[Token]) -> Tuple[int, int]:
        """``(positive, negative)`` of a token stream, as plain ints.

        Read off the one text walk (:func:`repro.text.analysis.analyze`),
        which holds the scoring rule: non-word tokens only contribute
        their exclamation marks — modifiers reach across them ("not,
        good") — and every per-word fact (base strength, the previous
        word's negator/booster role, shouting) is a field of the
        token's record, so the walk touches no lexicon.
        """
        # Imported here: analysis sits above the tokenizer, which
        # builds its records from this module's word strengths.
        from repro.text.analysis import analyze

        return analyze("", tokens)[10:]

    def score(self, text: str) -> SentimentScore:
        """Tokenize and score raw text."""
        # Imported here: the tokenizer builds its word records from
        # this module's word strengths, so it sits above us at import
        # time.
        from repro.text.tokenizer import tokenize

        return self.score_tokens(tokenize(text))


def _clamp(strength: int) -> int:
    return max(-5, min(5, strength))


def score_many(texts: Sequence[str]) -> List[SentimentScore]:
    """Score a batch of texts with a shared analyzer."""
    analyzer = SentimentAnalyzer()
    return [analyzer.score(text) for text in texts]

"""One-pass text analysis for the feature-extraction hot path.

The feature extractor needs roughly a dozen facts about one tweet's
text: hashtag/URL/all-caps counts, POS category counts, sentence and
word statistics, sentiment strengths, the swear count, and the
lowercased word list for BoW matching. :func:`analyze` computes all of
them in two walks — one over the raw tokens, one over the word view —
plus one regex pass for sentence counting, and every per-word fact is
an attribute read off the token's interned record
(:mod:`repro.text.tokenizer`): no ``str.lower``, no lexicon probe and
no memo lookup per occurrence.

Contract (``tests/text/test_feature_contract.py``): the 17-feature
vectors built from this analysis are ``==``-identical, tweet for tweet,
to a committed golden produced by the pre-record extractor — every
degrade tier × ``preprocessing`` × ``deobfuscate`` — and to a naive
tests-only reference that loops over :mod:`repro.text.lexicons`
directly, under hypothesis-generated unicode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.text.pos import PosTag
from repro.text.sentiment import SentimentAnalyzer, SentimentScore
from repro.text.tokenizer import Token, TokenType, count_sentences

_ADJECTIVE = PosTag.ADJECTIVE
_ADVERB = PosTag.ADVERB
_VERB = PosTag.VERB
_WORD = TokenType.WORD
_HASHTAG = TokenType.HASHTAG
_URL = TokenType.URL

#: Shared stateless scorer for callers that do not bring their own.
_DEFAULT_SENTIMENT = SentimentAnalyzer()


@dataclass
class TextAnalysis:
    """Everything the feature extractor needs from one tweet's text."""

    #: Counts over the raw token stream (before preprocessing).
    n_hashtags: int
    n_urls: int
    n_uppercase: int
    #: Lowercased surface forms of the word view, in order.
    lower_words: List[str]
    n_words: int
    total_word_chars: int
    n_sentences: int
    #: Adjective/adverb/verb counts over the word view; ``None`` when
    #: POS tagging was skipped (degraded tier).
    n_adjectives: Optional[int]
    n_adverbs: Optional[int]
    n_verbs: Optional[int]
    #: Word-view entries whose lowercase form is in the base swear
    #: lexicon (a caller that rewrites ``lower_words`` recounts).
    n_swear: int
    #: ``None`` when sentiment scoring was skipped (degraded tier).
    sentiment: Optional[SentimentScore]

    @property
    def mean_word_length(self) -> float:
        """Average word length over the word view (0 when empty)."""
        if self.n_words == 0:
            return 0.0
        return self.total_word_chars / self.n_words

    @property
    def words_per_sentence(self) -> float:
        """Words per sentence; the whole text counts as one sentence
        when no terminator is present."""
        if self.n_sentences == 0:
            return float(self.n_words)
        return self.n_words / self.n_sentences


def analyze(
    text: str,
    raw_tokens: Sequence[Token],
    word_tokens: Sequence[Token],
    want_pos: bool = True,
    want_sentiment: bool = True,
    sentiment: Optional[SentimentAnalyzer] = None,
) -> TextAnalysis:
    """Fused single-pass analysis of one tweet's text.

    ``raw_tokens`` must be ``tokenize(text)`` and ``word_tokens`` the
    extractor's word view of it (preprocessed or raw-word); they are
    passed in rather than recomputed because the caller needs both
    anyway. ``want_pos``/``want_sentiment`` gate the two sheddable
    stages (degrade tiers): a skipped stage reports ``None``. Records
    carry every field regardless, so a degraded tier is "do not read
    these fields", not a cheaper token.
    """
    # Walk 1: raw tokens — removed-content counts, the shouting count,
    # the exclamation flag, and the word subsequence sentiment scores.
    n_hashtags = 0
    n_urls = 0
    n_uppercase = 0
    has_exclamation = False
    raw_words: List[Token] = []
    append_word = raw_words.append
    for token in raw_tokens:
        token_type = token.type
        if token_type is _WORD:
            append_word(token)
            if token.is_uppercase_word:
                n_uppercase += 1
        else:
            if token_type is _HASHTAG:
                n_hashtags += 1
            elif token_type is _URL:
                n_urls += 1
            if "!" in token.text:
                has_exclamation = True

    score: Optional[SentimentScore] = None
    if want_sentiment:
        scorer = sentiment if sentiment is not None else _DEFAULT_SENTIMENT
        score = scorer.score_words(raw_words, has_exclamation)

    # Walk 2: the word view — lowercased forms, length and swear
    # totals, and (unless shed) the three syntactic counts. A non-WORD
    # token in the view (``preprocessing=False``) carries a NUMBER/OTHER
    # tag, so it adds to the length statistics and never to a POS count.
    lower_words: List[str] = []
    append_lower = lower_words.append
    total_word_chars = 0
    n_swear = 0
    n_adjectives: Optional[int] = None
    n_adverbs: Optional[int] = None
    n_verbs: Optional[int] = None
    if want_pos:
        n_adjectives = n_adverbs = n_verbs = 0
        for token in word_tokens:
            append_lower(token.lower)
            total_word_chars += token.length
            if token.swear:
                n_swear += 1
            tag = token.pos
            if tag is _ADJECTIVE:
                n_adjectives += 1
            elif tag is _ADVERB:
                n_adverbs += 1
            elif tag is _VERB:
                n_verbs += 1
    else:
        for token in word_tokens:
            append_lower(token.lower)
            total_word_chars += token.length
            if token.swear:
                n_swear += 1

    # Positional, in field order: keyword binding costs ~0.5 us a tweet.
    return TextAnalysis(
        n_hashtags,
        n_urls,
        n_uppercase,
        lower_words,
        len(lower_words),
        total_word_chars,
        count_sentences(text),
        n_adjectives,
        n_adverbs,
        n_verbs,
        n_swear,
        score,
    )

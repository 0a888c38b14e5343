"""One-pass text analysis for the feature-extraction hot path.

The feature extractor needs roughly a dozen facts about one tweet's
text: hashtag/URL/all-caps counts, POS category counts, sentence and
word statistics, sentiment strengths, the swear count, and the
lowercased word list for BoW matching. :func:`analyze` computes all of
them in two walks — one over the raw tokens, one over the word view —
plus the sentiment scorer's walk and one regex pass for sentence
counting, and hands them back as one flat tuple of plain numbers. Every
per-word fact is an attribute read off the token's interned record
(:mod:`repro.text.tokenizer`): no ``str.lower``, no lexicon probe, no
memo lookup and no per-tweet result object.

Contract (``tests/text/test_feature_contract.py``): the 17-feature
vectors built from this analysis are ``==``-identical, tweet for tweet,
to a committed golden produced by the pre-record extractor — every
degrade tier × ``preprocessing`` × ``deobfuscate`` — and to a naive
tests-only reference that loops over :mod:`repro.text.lexicons`
directly, under hypothesis-generated unicode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.text.pos import PosTag
from repro.text.sentiment import SentimentAnalyzer
from repro.text.tokenizer import Token, TokenType, count_sentences

_ADJECTIVE = PosTag.ADJECTIVE
_ADVERB = PosTag.ADVERB
_VERB = PosTag.VERB
_HASHTAG = TokenType.HASHTAG
_URL = TokenType.URL

#: Shared stateless scorer for callers that do not bring their own.
_DEFAULT_SENTIMENT = SentimentAnalyzer()

#: What :func:`analyze` returns, in order: ``n_hashtags``, ``n_urls``,
#: ``n_uppercase`` (raw token stream); ``lower_words`` (lowercased word
#: view, in order), ``total_word_chars``, ``n_sentences``;
#: ``n_adjectives``, ``n_adverbs``, ``n_verbs`` (``None`` each when POS
#: was shed); ``n_swear`` (word-view entries in the base swear lexicon —
#: a caller that rewrites ``lower_words`` recounts); ``positive``,
#: ``negative`` sentiment strengths (``None`` each when shed).
Analysis = Tuple[
    int, int, int, List[str], int, int,
    Optional[int], Optional[int], Optional[int], int,
    Optional[int], Optional[int],
]


def analyze(
    text: str,
    raw_tokens: Sequence[Token],
    word_tokens: Sequence[Token],
    want_pos: bool = True,
    want_sentiment: bool = True,
    sentiment: Optional[SentimentAnalyzer] = None,
) -> Analysis:
    """Fused analysis of one tweet's text, as plain numbers.

    ``raw_tokens`` must be ``tokenize(text)`` and ``word_tokens`` the
    extractor's word view of it (preprocessed or raw-word); they are
    passed in rather than recomputed because the caller needs both
    anyway. ``want_pos``/``want_sentiment`` gate the two sheddable
    stages (degrade tiers): a skipped stage reports ``None``. Records
    carry every field regardless, so a degraded tier is "do not read
    these fields", not a cheaper token. The result is the flat tuple
    :data:`Analysis` — one allocation, unpacked by the one hot caller.
    """
    # Walk 1: raw tokens — removed-content counts and the shouting count
    # (abbreviations like "RT" shout too, so not the word view).
    n_hashtags = 0
    n_urls = 0
    n_uppercase = 0
    for token in raw_tokens:
        if token.is_word:
            if token.is_uppercase_word:
                n_uppercase += 1
        else:
            token_type = token.type
            if token_type is _HASHTAG:
                n_hashtags += 1
            elif token_type is _URL:
                n_urls += 1

    positive: Optional[int] = None
    negative: Optional[int] = None
    if want_sentiment:
        scorer = sentiment if sentiment is not None else _DEFAULT_SENTIMENT
        positive, negative = scorer.strengths(raw_tokens)

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

    return (
        n_hashtags,
        n_urls,
        n_uppercase,
        lower_words,
        total_word_chars,
        count_sentences(text),
        n_adjectives,
        n_adverbs,
        n_verbs,
        n_swear,
        positive,
        negative,
    )

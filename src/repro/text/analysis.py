"""One-pass text analysis for the feature-extraction hot path.

The feature extractor needs roughly a dozen facts about one tweet's
text: hashtag/URL/all-caps counts, POS category counts, sentence and
word statistics, sentiment strengths, the swear count, and the
lowercased word list for BoW matching. :func:`analyze` computes all of
them in one walk over the raw tokens and hands them back as one flat
tuple of plain numbers. Every per-token fact is an attribute read off
the token's interned record (:mod:`repro.text.tokenizer`): no
``str.lower``, no lexicon probe, no regex, no word-view list and no
per-tweet result object.

* **Word view.** ``Token.view`` says which views hold a token (2: a
  kept word, in both; 1: the raw word view only; 0: neither), so the
  preprocessed and the raw word view are one comparison per token.
* **Sentiment.** The SentiStrength-style rule — strongest word per
  polarity, the previous word's negator/booster role, shouting and
  exclamation boosts — lives here once;
  :meth:`repro.text.sentiment.SentimentAnalyzer.strengths` reads its
  two numbers off this walk.
* **Sentences.** The sentence count is the number of fragments between
  terminator runs (``[.!?…]+``) that hold a non-blank character — what
  splitting the text on that pattern counts. No token holds whitespace,
  so each record knows its own share: whether it starts with content
  (``head``), how many content fragments begin after its first run
  (``after``) and whether it ends inside a run (``closes``). The walk
  carries one flag across tokens: has the current fragment been
  counted yet.

Contract (``tests/text/test_feature_contract.py``): the 17-feature
vectors built from this analysis are ``==``-identical, tweet for tweet,
to a committed golden produced by the pre-record extractor — every
degrade tier × ``preprocessing`` × ``deobfuscate`` — and to a naive
tests-only reference that loops over :mod:`repro.text.lexicons`
directly, under hypothesis-generated unicode.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.text.pos import PosTag
from repro.text.tokenizer import Token, TokenType, tokenize

_ADJECTIVE = PosTag.ADJECTIVE
_ADVERB = PosTag.ADVERB
_VERB = PosTag.VERB
_HASHTAG = TokenType.HASHTAG
_URL = TokenType.URL

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
    raw_tokens: Optional[Iterable[Token]] = None,
    preprocessing: bool = True,
    want_pos: bool = True,
    want_sentiment: bool = True,
) -> Analysis:
    """Fused analysis of one tweet's text, as plain numbers.

    ``raw_tokens`` is ``tokenize(text)``, passed by a caller that
    already has it (``None``: tokenize here). ``preprocessing`` picks
    the word view: the kept words when truthy, every token but
    punctuation, emoticons and symbols otherwise.
    ``want_pos``/``want_sentiment`` gate the two sheddable stages
    (degrade tiers): a skipped stage reports ``None``. The walk reads
    their record fields either way — a few attribute reads per token —
    so a degraded tier is "do not report these", not a cheaper token.
    The result is the flat tuple :data:`Analysis` — one allocation,
    unpacked by the one hot caller.
    """
    if raw_tokens is None:
        raw_tokens = tokenize(text)
    level = 2 if preprocessing else 1
    n_hashtags = 0
    n_urls = 0
    n_uppercase = 0
    lower_words: List[str] = []
    append_lower = lower_words.append
    total_word_chars = 0
    n_swear = 0
    n_adjectives = 0
    n_adverbs = 0
    n_verbs = 0
    n_sentences = 0
    closed = True  # the current sentence fragment has no content yet
    max_positive = 1
    min_negative = -1
    previous: Optional[Token] = None  # the last word token
    exclaimed = False
    for token in raw_tokens:
        if token.is_word:
            if closed:
                n_sentences += 1
                closed = False
            if token.is_uppercase_word:
                n_uppercase += 1
            # Sentiment: modifiers reach across non-words ("not, good").
            strength = token.strength
            if strength:
                if previous is not None:
                    if previous.negator:
                        strength = -strength
                    elif previous.boost:
                        delta = previous.boost
                        strength += delta if strength > 0 else -delta
                if token.is_uppercase_word:
                    strength += 1 if strength > 0 else -1
                if strength > 0:
                    if strength > max_positive:
                        max_positive = min(strength, 5)
                elif strength < min_negative:
                    min_negative = max(strength, -5)
            previous = token
        else:
            if closed and token.head:
                n_sentences += 1
            n_sentences += token.after
            closed = token.closes
            if token.bang:
                exclaimed = True
            token_type = token.type
            if token_type is _HASHTAG:
                n_hashtags += 1
            elif token_type is _URL:
                n_urls += 1
        if token.view < level:
            continue
        # The word view. A non-WORD token in it (the raw view) carries
        # a NUMBER/OTHER tag, so it adds to the length statistics and
        # never to a POS count.
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
    if exclaimed:
        if max_positive > -min_negative and max_positive < 5:
            max_positive += 1
        elif -min_negative > max_positive and min_negative > -5:
            min_negative -= 1
    if not want_pos:
        n_adjectives = n_adverbs = n_verbs = None
    if not want_sentiment:
        max_positive = min_negative = None
    return (
        n_hashtags,
        n_urls,
        n_uppercase,
        lower_words,
        total_word_chars,
        n_sentences,
        n_adjectives,
        n_adverbs,
        n_verbs,
        n_swear,
        max_positive,
        min_negative,
    )

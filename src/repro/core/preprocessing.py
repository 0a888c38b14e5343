"""Tweet-text preprocessing (Fig. 1, step 1).

Cleans tweet text before word-level feature extraction: removes numbers,
punctuation, special symbols, and URLs; condenses whitespace; and strips
tweet-specific content — known abbreviations (RT, MT, ...), hashtags,
and user mentions. Case is preserved (the uppercase-word feature needs
it). Counting features that depend on the removed content (hashtags,
URLs, mentions) are extracted from the raw token stream *before* this
step runs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.text.lexicons import TWITTER_ABBREVIATIONS  # noqa: F401  (re-export)
from repro.text.tokenizer import Token


def preprocess_tokens(tokens: Sequence[Token]) -> List[Token]:
    """Filter a token stream down to clean word tokens.

    Drops URLs, mentions, hashtags, numbers, punctuation, emoticons,
    symbols, and known Twitter abbreviations — one ``kept`` flag read
    per token; the flag is computed when the token's record is built.
    """
    return [token for token in tokens if token.kept]


def raw_word_tokens(tokens: Sequence[Token]) -> List[Token]:
    """The "no preprocessing" token view used when the stage is disabled.

    Everything except pure punctuation is treated as a word-ish token,
    so URLs, hashtags, mentions, and numbers pollute the word-level
    features exactly as skipping the cleaning step would. One ``view``
    flag read per token, like :func:`preprocess_tokens`.
    """
    return [token for token in tokens if token.view]

"""NLP substrate: tweet tokenization, POS tagging, sentiment, lexicons.

These modules replace the external tools the paper depends on:
SentiStrength (sentiment on a [-5, 5] scale) and the noswearing.com
swear-word list (347 entries), plus a tweet-aware tokenizer and a
lexicon/suffix-rule part-of-speech tagger used for the syntactic
features (adjective/adverb/verb counts).
"""

from repro.text.lexicons import (
    SWEAR_WORDS,
    negation_words,
    sentiment_lexicon,
    swear_words,
)
from repro.text.sentiment import SentimentAnalyzer, SentimentScore
from repro.text.tokenizer import Token, TokenType, tokenize

__all__ = [
    "SWEAR_WORDS",
    "negation_words",
    "sentiment_lexicon",
    "swear_words",
    "SentimentAnalyzer",
    "SentimentScore",
    "Token",
    "TokenType",
    "tokenize",
]

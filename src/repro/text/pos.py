"""Lexicon + suffix-rule part-of-speech tagger.

The paper's syntactic features are the relative frequencies of
adjectives, adverbs, and verbs. A full statistical tagger is overkill
for counting three coarse categories, so this tagger combines:

1. closed-class lexicons (pronouns, determiners, prepositions,
   conjunctions) — always exact;
2. open-class lexicons for common adjectives/adverbs/verbs;
3. suffix rules for everything else ("-ly" → adverb, "-ous"/"-ful"/...
   → adjective, "-ize"/"-ate"/... → verb, default noun).

This mirrors the coarse POS counting behaviour of off-the-shelf taggers
closely enough for the feature distributions in Fig. 4c.
"""

from __future__ import annotations

import enum

from repro.text import lexicons


class PosTag(enum.Enum):
    """Coarse part-of-speech categories."""

    ADJECTIVE = "ADJ"
    ADVERB = "ADV"
    VERB = "VERB"
    NOUN = "NOUN"
    PRONOUN = "PRON"
    DETERMINER = "DET"
    PREPOSITION = "PREP"
    CONJUNCTION = "CONJ"
    NUMBER = "NUM"
    OTHER = "OTHER"


_ADJECTIVE_SUFFIXES = (
    "ous", "ful", "able", "ible", "ish", "ive", "less", "ant", "ent",
    "al", "ic", "est",
)
_ADVERB_SUFFIXES = ("ly",)
_VERB_SUFFIXES = ("ize", "ise", "ate", "ify", "en")
_VERB_INFLECTIONS = ("ing", "ed")


def tag_lower_word(lower: str) -> PosTag:
    """Tag one already-lowercased word.

    Pure in the word and the module-level lexicons. Not memoized here:
    the tokenizer runs the cascade once per distinct surface form when
    it builds the word's record and stores the tag as ``Token.pos``.
    """
    if lower in lexicons.PRONOUNS:
        return PosTag.PRONOUN
    if lower in lexicons.DETERMINERS:
        return PosTag.DETERMINER
    if lower in lexicons.PREPOSITIONS:
        return PosTag.PREPOSITION
    if lower in lexicons.CONJUNCTIONS:
        return PosTag.CONJUNCTION
    if lower in lexicons.ADVERBS:
        return PosTag.ADVERB
    if lower in lexicons.ADJECTIVES:
        return PosTag.ADJECTIVE
    if lower in lexicons.VERBS:
        return PosTag.VERB
    return _tag_by_suffix(lower)


def _tag_by_suffix(lower: str) -> PosTag:
    if len(lower) <= 2:
        return PosTag.OTHER
    for suffix in _ADVERB_SUFFIXES:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
            return PosTag.ADVERB
    for suffix in _ADJECTIVE_SUFFIXES:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
            return PosTag.ADJECTIVE
    for suffix in _VERB_SUFFIXES:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
            return PosTag.VERB
    for suffix in _VERB_INFLECTIONS:
        if lower.endswith(suffix) and len(lower) > len(suffix) + 2:
            return PosTag.VERB
    return PosTag.NOUN

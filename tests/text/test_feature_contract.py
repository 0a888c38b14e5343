"""The feature contract: 17-tuples are ``==``-identical across rewrites.

Two independent pins, neither of which shares code with the extractor:

* **Golden.** ``golden_features.json`` holds the vectors the extractor
  produced *before* word records were interned (PR 16's parent commit)
  for a fixed stream drawn from the synthetic, sarcasm and offensive
  generators plus a few hand-written probes — every tier ×
  ``preprocessing`` × ``deobfuscate`` combination on a subset, the
  default configuration on all of it, with the adaptive BoW evolving
  along the way. Regenerate (only when the *features* are meant to
  change) with ``PYTHONPATH=src python tests/text/test_feature_contract.py``.
* **Naive reference.** ``naive_features`` recomputes the twelve
  text-derived features with plain per-feature loops straight off
  :mod:`repro.text.lexicons` — no ``Token``, no table — and must agree
  under hypothesis-generated unicode.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.core.features import DegradeTier, FeatureExtractor, LabelEncoder
from repro.data.offensive import OffensiveDatasetGenerator
from repro.data.sarcasm import SarcasmDatasetGenerator
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet, UserProfile
from repro.text import lexicons
from repro.text.analysis import analyze
from repro.text.tokenizer import tokenize

GOLDEN_PATH = Path(__file__).with_name("golden_features.json")

#: Tweets every configuration sees (the default one sees the whole stream).
SUBSET = 150

PROBES = (
    "",
    "RT @troll: you are a f*cking IDIOT!!! #loser http://t.co/x :(",
    "sh1t a$$ i.d.i.o.t fuuuck b1tch sooooo baaaad",
    "NOT GOOD. very BAD? slightly great... extremely awful!",
    "I am not happy; never kind, barely nice",
    "smh imo this is via cc the WORST 2nd covid19 3.14 1,000",
    "xD :-) <3 :'( don't state-of-the-art www.example.com/path?q=1",
    "İstanbul straße \uff21\uff22\uff23 ǅ ß ﬁnally naïve café \u0661\u0662\u0663 #İß @ß",
    "a\u200bb\u200fc \u202eevil\u202c \U0001f600\U0001f621 \ud800 lone",
    "quickly running beautiful hazardous optimize the they between because",
)

CONFIGS: Tuple[Tuple[str, bool, bool], ...] = tuple(
    itertools.product(
        ("FULL", "NO_POS", "TEXT_ONLY"), (True, False), (False, True)
    )
)


def golden_stream() -> List[Tweet]:
    """≥ 2 000 tweets: the probes, then the three generators round-robin
    (so the :data:`SUBSET` prefix sees all of them), then the rest of
    the synthetic stream. Only synthetic tweets keep their labels — the
    ones the 3-class encoder knows — so the adaptive BoW moves."""
    user = UserProfile(user_id="p", created_at=1.5e9, statuses_count=7)
    stream = [
        Tweet(tweet_id=f"probe{i}", text=text, created_at=1.6e9, user=user)
        for i, text in enumerate(PROBES)
    ]
    synthetic = AbusiveDatasetGenerator(n_tweets=1300, seed=3).generate_list()
    sarcasm = SarcasmDatasetGenerator(n_tweets=450, seed=5).generate()
    offensive = OffensiveDatasetGenerator(n_tweets=450, seed=9).generate()
    for labelled, sarcastic, offending in zip(synthetic, sarcasm, offensive):
        stream.append(labelled)
        stream.append(dataclasses.replace(sarcastic.tweet, label=None))
        stream.append(dataclasses.replace(offending, label=None))
    return stream + synthetic[450:]


def extract_rows(
    tweets: Sequence[Tweet], tier: str, preprocessing: bool, deobfuscate: bool
) -> List[List[float]]:
    extractor = FeatureExtractor(
        encoder=LabelEncoder(3),
        preprocessing=preprocessing,
        bag_of_words=AdaptiveBagOfWords(update_interval=40),
        deobfuscate=deobfuscate,
        tier=DegradeTier[tier],
    )
    return [list(extractor.extract(tweet).x) for tweet in tweets]


def compute_golden() -> Dict[str, List[List[float]]]:
    tweets = golden_stream()
    rows = {}
    for tier, preprocessing, deobfuscate in CONFIGS:
        default = (tier, preprocessing, deobfuscate) == ("FULL", True, False)
        key = f"{tier}/p={int(preprocessing)}/d={int(deobfuscate)}"
        rows[key] = extract_rows(
            tweets if default else tweets[:SUBSET],
            tier, preprocessing, deobfuscate,
        )
    return rows


class TestGolden:
    def test_every_configuration_matches_the_parent_commit(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        rows = compute_golden()
        assert rows.keys() == golden.keys()
        assert len(rows["FULL/p=1/d=0"]) >= 2000
        for key, expected in golden.items():
            assert len(rows[key]) == len(expected), key
            for index, (got, want) in enumerate(zip(rows[key], expected)):
                assert got == want, (key, index)

    def test_golden_exercises_the_adaptive_bow_and_every_text_feature(self):
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        columns = list(zip(*golden["FULL/p=1/d=0"]))
        for column in columns[5:]:
            assert len(set(column)) > 1
        # bowMatches exceeds cntSwearWords somewhere: the BoW grew.
        assert any(bow > swear for swear, bow in zip(columns[15], columns[16]))


# -- naive reference ---------------------------------------------------------

_NAIVE_TOKEN = re.compile(
    r"(https?://\S+|www\.\S+)|(@\w+)|(\#\w+)"
    r"|(:\)|:-\)|:\(|:-\(|:D|:-D|;\)|;-\)|:P|:-P|:/|:-/|:\||:-\||:o|:O|<3"
    r"|</3|xD|XD|:'\(|:'\))"
    r"|(\d+(?:[.,]\d+)*)|([A-Za-z](?:[A-Za-z'*$0-9-]*[A-Za-z*$0-9])?)"
    r"|([.!?,;:\"'()\[\]{}…-]+)|(\S)"
)
URL, MENTION, HASHTAG, EMOTICON, NUMBER, WORD, PUNCT, SYMBOL = range(1, 9)
_KIND_NAMES = (None, "URL", "MENTION", "HASHTAG", "EMOTICON", "NUMBER",
               "WORD", "PUNCTUATION", "SYMBOL")
_ABBREVIATIONS = {
    "rt", "mt", "ht", "via", "cc", "dm", "ff", "icymi", "tbt", "smh",
    "imo", "imho", "fyi", "btw", "irl", "ikr",
}
_ADJ_SUFFIXES = ("ous", "ful", "able", "ible", "ish", "ive", "less", "ant",
                 "ent", "al", "ic", "est")


def _naive_pos(word: str) -> str:
    for name in ("PRONOUNS", "DETERMINERS", "PREPOSITIONS", "CONJUNCTIONS"):
        if word in getattr(lexicons, name):
            return "closed"
    for name in ("ADVERBS", "ADJECTIVES", "VERBS"):
        if word in getattr(lexicons, name):
            return name
    if len(word) <= 2:
        return "other"
    if word.endswith("ly") and len(word) > 4:
        return "ADVERBS"
    if any(word.endswith(s) and len(word) > len(s) + 2 for s in _ADJ_SUFFIXES):
        return "ADJECTIVES"
    if any(word.endswith(s) and len(word) > len(s) + 1
           for s in ("ize", "ise", "ate", "ify", "en")):
        return "VERBS"
    if any(word.endswith(s) and len(word) > len(s) + 2 for s in ("ing", "ed")):
        return "VERBS"
    return "noun"


def _naive_strength(word: str) -> int:
    lexicon = lexicons.sentiment_lexicon()
    if word in lexicon:
        return lexicon[word]
    squeezed = re.sub(r"(\w)\1{2,}", r"\1", word)
    if squeezed != word and squeezed in lexicon:
        base = lexicon[squeezed]
        return max(-5, min(5, base + (1 if base > 0 else -1)))
    return 0


def _naive_sentiment(words: List[str], exclaimed: bool) -> Tuple[int, int]:
    positive, negative = 1, -1
    for i, word in enumerate(words):
        strength = _naive_strength(word.lower())
        if strength == 0:
            continue
        previous = words[i - 1].lower() if i else None
        if previous in lexicons.negation_words():
            strength = -strength
        elif previous in lexicons.booster_words():
            delta = lexicons.booster_words()[previous]
            strength += delta if strength > 0 else -delta
        if len(word) >= 2 and word.isupper():
            strength += 1 if strength > 0 else -1
        strength = max(-5, min(5, strength))
        positive = max(positive, strength)
        negative = min(negative, strength)
    if exclaimed and positive > -negative and positive < 5:
        positive += 1
    elif exclaimed and -negative > positive and negative > -5:
        negative -= 1
    return positive, negative


def naive_features(
    text: str, preprocessing: bool, bow: Sequence[str]
) -> Tuple[float, ...]:
    """Features 5..16 of the FULL tier, no deobfuscation."""
    pairs = [(m.lastindex, m.group()) for m in _NAIVE_TOKEN.finditer(text)]
    raw_words = [s for kind, s in pairs if kind == WORD]
    if preprocessing:
        view = [s for s in raw_words if s.lower() not in _ABBREVIATIONS]
        tagged = view
    else:
        view = [s for k, s in pairs if k not in (PUNCT, EMOTICON, SYMBOL)]
        tagged = [s for k, s in pairs if k == WORD]
    tags = [_naive_pos(s.lower()) for s in tagged]
    sentences = [p for p in re.split(r"[.!?…]+", text) if p.strip()]
    exclaimed = any("!" in s for kind, s in pairs if kind != WORD)
    positive, negative = _naive_sentiment(raw_words, exclaimed)
    lowered = [s.lower() for s in view]
    return (
        float(sum(1 for kind, _ in pairs if kind == HASHTAG)),
        float(sum(1 for s in raw_words if len(s) >= 2 and s.isupper())),
        float(sum(1 for kind, _ in pairs if kind == URL)),
        float(tags.count("ADJECTIVES")),
        float(tags.count("ADVERBS")),
        float(tags.count("VERBS")),
        len(view) / len(sentences) if sentences else float(len(view)),
        sum(len(s) for s in view) / len(view) if view else 0.0,
        float(positive),
        float(negative),
        float(sum(1 for w in lowered if w in lexicons.SWEAR_WORDS)),
        float(sum(1 for w in lowered if w in bow)),
    )


_BOW = ("idiot", "loser", "ss", "i\u0307", "#ß", "lone", "good")
_ODDITIES = st.sampled_from(
    ("İ", "ß", "ǅ", "ﬁ", "\u200b", "\u200f", "\u202e", "\u202c", "\ud800",
     "\udfff", "\U0001f600", "\u0661", "\uff21", "\u0643", "\u044f", "\u5b57", "\u0307")
)
_FRAGMENTS = st.sampled_from(
    PROBES[1:] + tuple(" ".join(PROBES).split())
    + (" ", "  ", "\n", "\t ", "!", ".", "http://", "https://x", "http:",
       "www.", "www", "xD", "XDa", "axD", "x", ":", "-", "</3", "<", "'")
)
_TEXTS = st.lists(
    st.one_of(_FRAGMENTS, _ODDITIES, st.text(max_size=12)), max_size=14
).map("".join)


class TestNaiveReference:
    @given(text=_TEXTS)
    @settings(max_examples=400, deadline=None)
    def test_tokens_equal_the_original_pattern(self, text):
        # The production pattern is reordered (WORD first, whitespace
        # skipped in-match); the original alternation is the spec.
        assert [(t.type.name, t.text) for t in tokenize(text)] == [
            (_KIND_NAMES[m.lastindex], m.group())
            for m in _NAIVE_TOKEN.finditer(text)
        ]

    @given(text=_TEXTS, preprocessing=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_text_features_equal_the_naive_loops(self, text, preprocessing):
        extractor = FeatureExtractor(
            preprocessing=preprocessing, bag_of_words=FixedBagOfWords(_BOW)
        )
        tweet = Tweet(tweet_id="t", text=text, created_at=0.0)
        got = extractor.extract(tweet).x[5:]
        assert got == naive_features(text, preprocessing, _BOW)

    @given(
        text=st.one_of(
            _TEXTS, st.text(alphabet=" .!?…a3@#:)x/w.\n,", max_size=30)
        )
    )
    @settings(max_examples=600, deadline=None)
    def test_sentence_count_equals_the_regex_split(self, text):
        # wordsPerSentence hides the count when the view is empty, so
        # the token-derived count is pinned on its own.
        assert analyze(text)[5] == len(
            [p for p in re.split(r"[.!?…]+", text) if p.strip()]
        )

    def test_probes_equal_the_naive_loops(self):
        for preprocessing in (True, False):
            extractor = FeatureExtractor(
                preprocessing=preprocessing,
                bag_of_words=FixedBagOfWords(_BOW),
            )
            for text in PROBES:
                tweet = Tweet(tweet_id="t", text=text, created_at=0.0)
                assert extractor.extract(tweet).x[5:] == naive_features(
                    text, preprocessing, _BOW
                ), text


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )

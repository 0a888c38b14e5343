"""Tweet-aware tokenizer and the interned token records it hands out.

Splits raw tweet text into typed tokens: URLs, user mentions, hashtags,
emoticons, words, numbers, and punctuation. Downstream consumers rely on
the types — e.g. preprocessing removes URL/MENTION/HASHTAG tokens and
the feature extractor counts them first.

A :class:`Token` is also the *record* of every per-surface fact the
feature path reads (lowercase form, POS tag, sentiment strength, the
word views it belongs to, its sentence-terminator shape, ...), computed
once in the constructor. Tweet vocabulary is Zipfian, so
:func:`tokenize` interns tokens by surface text in one bounded
module-level table, and the scan is two C loops: one ``findall`` for the
surface strings, one ``map`` of them through the table. A repeated
surface costs one table read; only a miss runs Python (classify the
surface, build its record). Every kind except URLs is stored — a URL
is almost never repeated, so storing it would only evict words.

The table is a pure cache — a record is a function of the surface string
and the import-time lexicons only — so it is never part of a checkpoint,
snapshot, broadcast or digest, and clearing it changes no result.
Threads share it without a lock: the miss path is not atomic and does
not need to be — a lost race merely builds an identical record twice and
one store wins. DESIGN.md §9 has the full contract.
"""

from __future__ import annotations

import enum
import re
from typing import List

from repro.text.lexicons import (
    SWEAR_WORDS,
    TWITTER_ABBREVIATIONS,
    booster_words,
    negation_words,
)
from repro.text.pos import PosTag, tag_lower_word
from repro.text.sentiment import word_strength_lower

#: Entries a memo keyed by surface form may hold (the word table here,
#: each ``Deobfuscator``'s memo). A full memo is cleared and refills from
#: the stream, so a burst of unique strings costs one re-warm rather than
#: a permanently poisoned cache.
WORD_TABLE_LIMIT = 65536

#: Longer surface forms are never stored, so the bound on entries is
#: also a bound on bytes.
MAX_INTERNED_LENGTH = 64


class TokenType(enum.Enum):
    """Categories a tweet token can take."""

    WORD = "word"
    URL = "url"
    MENTION = "mention"
    HASHTAG = "hashtag"
    NUMBER = "number"
    EMOTICON = "emoticon"
    PUNCTUATION = "punctuation"
    SYMBOL = "symbol"


_WORD = TokenType.WORD
_URL_KIND = TokenType.URL
_NUMBER = TokenType.NUMBER
#: Kinds outside both word views (``Token.view`` 0).
_NO_VIEW = (TokenType.PUNCTUATION, TokenType.EMOTICON, TokenType.SYMBOL)
_NUMBER_TAG = PosTag.NUMBER
_OTHER_TAG = PosTag.OTHER
_NEGATIONS = negation_words()
_BOOSTERS = booster_words()
_SENTENCE_TERMINATORS = re.compile(r"[.!?…]+")
_TERMINATOR_CHARS = frozenset(".!?…")


class Token:
    """A token and the per-surface facts the feature path reads off it.

    Immutable, and compared/hashed by ``(text, type)`` only — every
    other field is derived from those two. The word facts stay at their
    neutral value on any other token type.
    """

    __slots__ = (
        "text",
        "type",
        "is_word",  # type is TokenType.WORD
        "lower",  # text.lower()
        "length",  # len(text)
        "swear",  # lower is in the base swear lexicon
        "is_uppercase_word",  # all-caps word of length >= 2 ('shouting')
        "kept",  # a word preprocessing keeps (not a Twitter abbreviation)
        "pos",  # PosTag of a word; NUMBER/OTHER for anything else
        "strength",  # base sentiment strength in [-5, 5], 0 if unknown
        "negator",  # flips the polarity of the next sentiment word
        "boost",  # level added to the next sentiment word, 0 if none
        "bang",  # "!" in text (a non-word's exclamation boosts sentiment)
        "view",  # 2 kept word, 1 raw word view only, 0 in neither view
        # The text's sentence terminator runs ([.!?…]+) as seen by one
        # token; no token holds whitespace, so any other character is
        # sentence content (DESIGN.md §9 "One-pass text analysis").
        "head",  # starts with content, not with a terminator
        "after",  # content fragments after its first terminator run
        "closes",  # ends inside a terminator run
    )

    def __new__(cls, text: str, type: TokenType) -> "Token":
        self = object.__new__(_Building)
        lower = text.lower()
        if lower == text:
            lower = text  # one string, not two, per lowercase record
        self.text = text
        self.type = type
        self.lower = lower
        self.length = len(text)
        self.swear = lower in SWEAR_WORDS
        self.bang = "!" in text
        if _TERMINATOR_CHARS.isdisjoint(text):
            self.head = True
            self.after = 0
            self.closes = False
        else:
            fragments = _SENTENCE_TERMINATORS.split(text)
            self.head = fragments[0] != ""
            self.after = len(fragments) - 1 - fragments[1:].count("")
            self.closes = fragments[-1] == ""
        if type is _WORD:
            kept = lower not in TWITTER_ABBREVIATIONS
            self.is_word = True
            self.is_uppercase_word = len(text) >= 2 and text.isupper()
            self.kept = kept
            self.view = 2 if kept else 1
            self.pos = tag_lower_word(lower)
            self.strength = word_strength_lower(lower)
            self.negator = lower in _NEGATIONS
            self.boost = _BOOSTERS.get(lower, 0)
        else:
            self.is_word = False
            self.is_uppercase_word = False
            self.kept = False
            self.view = 0 if type in _NO_VIEW else 1
            self.pos = _NUMBER_TAG if type is _NUMBER else _OTHER_TAG
            self.strength = 0
            self.negator = False
            self.boost = 0
        self.__class__ = cls
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Token is immutable (tried to set {name!r})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Token is immutable (tried to delete {name!r})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self.text == other.text and self.type is other.type

    def __hash__(self) -> int:
        return hash((self.text, self.type))

    def __repr__(self) -> str:
        return f"Token(text={self.text!r}, type={self.type!r})"

    def __reduce__(self):
        return (Token, (self.text, self.type))


class _Building:
    """A :class:`Token` while ``Token.__new__`` fills it.

    The same slots without the write guard, so each field is one plain
    store instead of one ``object.__setattr__`` call. Two classes with
    equal ``__slots__`` share a layout, so the finished record's
    ``__class__`` can then become ``Token``, which refuses every later
    write.
    """

    __slots__ = Token.__slots__


_EMOTICONS = (
    ":)", ":-)", ":(", ":-(", ":D", ":-D", ";)", ";-)", ":P", ":-P",
    ":/", ":-/", ":|", ":-|", ":o", ":O", "<3", "</3", "xD", "XD",
    ":'(", ":')",
)

_URL = r"https?://\S+|www\.\S+"

# The grammar, once. Alternatives are tried in order, so the order is the
# priority. WORD — six tokens in seven — is tried first and therefore
# carries, as a negative lookahead, the two higher-priority kinds that
# can start with a letter (URLs and the letter-initial emoticons);
# everything it rejects falls through to them. Every alternative is
# anchored at the token's first character and looks at nothing before
# it or after its own end, so a surface matched on its own takes the
# alternative it took in context (tests/text/test_scan_contract.py).
_ALTERNATIVES = r"""
    (?P<WORD>(?!%(url)s|%(letter_emoticon)s)
             [A-Za-z](?:[A-Za-z'*$0-9-]*[A-Za-z*$0-9])?)
  | (?P<URL>%(url)s)
  | (?P<MENTION>@\w+)
  | (?P<HASHTAG>\#\w+)
  | (?P<EMOTICON>%(emoticon)s)
  | (?P<NUMBER>\d+(?:[.,]\d+)*)
  | (?P<PUNCTUATION>[.!?,;:"'()\[\]{}…-]+)
  | (?P<SYMBOL>\S)
""" % {
    "url": _URL,
    "emoticon": "|".join(re.escape(e) for e in _EMOTICONS),
    "letter_emoticon": "|".join(
        re.escape(e) for e in _EMOTICONS if e[0].isalpha()
    ),
}

#: Classifies one surface: ``match(surface).lastindex`` is its kind.
_TOKEN_PATTERN = re.compile(_ALTERNATIVES, re.VERBOSE)

#: ``match.lastindex`` → token type (the groups are named after them).
_TYPE_BY_GROUP = {
    index: TokenType[name] for name, index in _TOKEN_PATTERN.groupindex.items()
}

# The scan: the same alternatives with their names dropped, inside one
# capturing group, so ``findall`` returns the surface strings from a
# single C loop. The leading ``\s*`` skips inter-token whitespace inside
# one match instead of one failed match per blank; :func:`tokenize`
# strips trailing whitespace first, so that run is always followed by a
# character some alternative (SYMBOL at the least) accepts and never
# backtracks.
_surfaces = re.compile(
    r"\s*(%s)" % re.sub(r"\(\?P<\w+>", "(?:", _ALTERNATIVES), re.VERBOSE
).findall


def remember(memo: dict, key: str, value):
    """Store ``value`` under the shared memo rule and return it.

    Keys longer than :data:`MAX_INTERNED_LENGTH` are not stored; a memo
    that has reached :data:`WORD_TABLE_LIMIT` entries is cleared first.
    """
    if len(key) <= MAX_INTERNED_LENGTH:
        if len(memo) >= WORD_TABLE_LIMIT:
            memo.clear()
        memo[key] = value
    return value


class _WordTable(dict):
    """Surface text → token; a miss classifies the surface and builds it.

    Every kind but URLs is stored under the :func:`remember` rule. A
    record is a function of its surface and the scan contract gives a
    surface exactly one kind, so no two kinds share a key. URLs are
    built per occurrence: they take this miss path every time.
    """

    def __missing__(self, surface: str) -> Token:
        kind = _TYPE_BY_GROUP[_TOKEN_PATTERN.match(surface).lastindex]
        token = Token(surface, kind)
        if kind is not _URL_KIND:
            remember(self, surface, token)
        return token


_WORD_TABLE = _WordTable()
_record = _WORD_TABLE.__getitem__


def tokenize(text: str) -> List[Token]:
    """Tokenize tweet text into typed tokens.

    Tokens are shared instances from the interned table — treat every
    token as read-only (they enforce it).
    """
    return list(map(_record, _surfaces(text.rstrip())))


def words(text: str) -> List[str]:
    """Lowercased word tokens only."""
    return [t.lower for t in tokenize(text) if t.type is _WORD]

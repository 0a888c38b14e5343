"""Tweet and user data model, compatible with the Twitter JSON payload.

The Twitter Streaming API delivers tweets as JSON objects carrying the
text, timestamps, retweet/reply flags, and an embedded user object with
profile counters. The pipeline's inputs (Fig. 1) are two such streams —
unlabeled and labeled — where labeled tweets carry one extra ``label``
attribute. These dataclasses round-trip that format.

A JSONL file is read as :class:`TweetLine` records, parsed where the
tweet is processed. ``Tweet`` and ``UserProfile`` stay plain: every
stage reads their fields, and on CPython 3.11 a ``__getattr__`` makes a
16 ns field read 85–101 ns, a property 55 ns
(``tools/check_hot_path.py`` keeps both out). Only the record is lazy:
it delegates the few ``Tweet`` attributes its callers read, each by its
own read-only property, so such a read costs one property call, not a
``__getattr__`` miss (~1 µs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

SECONDS_PER_DAY = 86400.0

_raw_decode = json.JSONDecoder().raw_decode


@dataclass
class UserProfile:
    """The subset of the Twitter user object the features need."""

    user_id: str
    screen_name: str = ""
    created_at: float = 0.0  # account creation, seconds since epoch
    statuses_count: int = 0  # number of posts
    listed_count: int = 0  # lists subscribed to
    followers_count: int = 0
    friends_count: int = 0

    def account_age_days(self, now: float) -> float:
        """Age of the account in days at time ``now``."""
        return max((now - self.created_at) / SECONDS_PER_DAY, 0.0)

    def to_json(self) -> Dict[str, Any]:
        """Twitter-style user JSON."""
        return {
            "id_str": self.user_id,
            "screen_name": self.screen_name,
            "created_at": self.created_at,
            "statuses_count": self.statuses_count,
            "listed_count": self.listed_count,
            "followers_count": self.followers_count,
            "friends_count": self.friends_count,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "UserProfile":
        """Parse a Twitter-style user JSON object."""
        get = payload.get  # positional: a third faster than keywords
        return cls(
            str(get("id_str", get("id", ""))),
            get("screen_name", ""),
            float(get("created_at", 0.0)),
            int(get("statuses_count", 0)),
            int(get("listed_count", 0)),
            int(get("followers_count", 0)),
            int(get("friends_count", 0)),
        )


@dataclass
class Tweet:
    """A tweet with optional ground-truth label.

    ``label`` is ``None`` on the unlabeled stream; labeled tweets carry
    the class name (e.g. "normal", "abusive", "hateful").
    """

    tweet_id: str
    text: str
    created_at: float
    user: UserProfile = field(default_factory=lambda: UserProfile(user_id="0"))
    is_retweet: bool = False
    is_reply: bool = False
    label: Optional[str] = None

    def is_labeled(self) -> bool:
        """Whether the tweet carries a label (a method: no properties
        on ``Tweet``)."""
        return self.label is not None

    def day_index(self, stream_start: float) -> int:
        """0-based collection day of this tweet relative to ``stream_start``."""
        return int((self.created_at - stream_start) // SECONDS_PER_DAY)

    def to_json(self) -> Dict[str, Any]:
        """Twitter-style tweet JSON (plus ``label`` when present)."""
        payload: Dict[str, Any] = {
            "id_str": self.tweet_id,
            "text": self.text,
            "created_at": self.created_at,
            "is_retweet": self.is_retweet,
            "is_reply": self.is_reply,
            "user": self.user.to_json(),
        }
        if self.label is not None:
            payload["label"] = self.label
        return payload

    def to_json_line(self) -> str:
        """Single-line JSON serialization."""
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Tweet":
        """Parse a Twitter-style tweet JSON object."""
        get = payload.get
        return cls(
            str(get("id_str", get("id", ""))),
            get("text", ""),
            float(get("created_at", 0.0)),
            UserProfile.from_json(get("user", {})),
            bool(get("is_retweet", False)),
            bool(get("is_reply", False)),
            get("label"),
        )

    @classmethod
    def from_json_line(cls, line: str) -> "Tweet":
        """Parse one JSONL line holding a JSON object; ``ValueError``
        if it is not UTF-8 (an undecodable byte read with
        ``surrogateescape`` is a lone surrogate), JSON or an object."""
        if not line.isascii():
            line.encode("utf-8")
        # json.loads minus its two whitespace scans; a line this does
        # not consume whole gets json.loads' own result or error.
        try:
            payload, end = _raw_decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            payload = json.loads(line)
        if type(payload) is not dict:
            raise ValueError(f"not a JSON object: {type(payload).__name__}")
        return cls.from_json(payload)


def _delegate(name: str) -> property:
    """A read-only ``Tweet.<name>`` of the record's parsed tweet."""
    read = attrgetter(name)
    return property(
        lambda self: read(self._tweet or self.tweet),
        doc=f"``Tweet.{name}`` of the parsed line.",
    )


class TweetLine:
    """One JSONL line and its 1-based line number, not yet parsed.

    :func:`~repro.data.loader.read_jsonl` yields these. A record pickles
    to its line and number alone, so a micro-batch block ships raw
    lines, and :meth:`parse` — called per row by the feature extractor
    or the supervisor's ingest check — turns it into a :class:`Tweet`.
    Other callers (the ledger's layer probes, scripts) may read
    ``tweet_id``, ``text``, ``user``, ``label`` and ``is_labeled`` off
    the record, one read-only property each, or anything else off
    :attr:`tweet`: the line is parsed once, on first use, and kept.
    """

    __slots__ = ("line", "lineno", "_tweet")

    def __init__(self, line: str, lineno: int = 0) -> None:
        self.line = line
        self.lineno = lineno
        self._tweet: Optional[Tweet] = None

    def __reduce__(self) -> Tuple[Any, Tuple[str, int]]:
        return TweetLine, (self.line, self.lineno)

    def parse(self, metrics: Optional["MetricsRegistry"] = None) -> Tweet:
        """A fresh tweet; ``"text": null`` becomes ``""``, counted in
        ``metrics``' ``ingest_null_text_total``. A line that is not a
        tweet raises ``ValueError`` naming its line number."""
        try:
            tweet = Tweet.from_json_line(self.line)
        except (
            ValueError, TypeError, AttributeError, OverflowError,
            RecursionError,
        ) as exc:
            raise ValueError(
                f"JSONL line {self.lineno}: {type(exc).__name__}: {exc}"
            ) from exc
        if tweet.text is None:
            tweet.text = ""
            if metrics is not None:
                metrics.counter("ingest_null_text_total").inc()
        return tweet

    @property
    def tweet(self) -> Tweet:
        """The line parsed on first use and kept."""
        if self._tweet is None:
            self._tweet = self.parse()
        return self._tweet

    tweet_id = _delegate("tweet_id")
    text = _delegate("text")
    user = _delegate("user")
    label = _delegate("label")
    is_labeled = _delegate("is_labeled")


#: One item of a tweet stream: an in-memory tweet or a JSONL record.
TweetItem = Union[Tweet, TweetLine]

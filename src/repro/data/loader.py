"""JSONL stream I/O and stream-composition utilities.

The system's inputs are two JSON streams (labeled and unlabeled tweets,
Fig. 1). These helpers read/write JSONL files lazily, strip labels to
build an unlabeled stream, interleave multiple streams by timestamp,
and split a stream into collection days (for the batch-training
regimes of Fig. 13/14).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Union,
)

from repro.data.tweet import Tweet, TweetLine

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

PathLike = Union[str, Path]


@dataclass
class IngestStats:
    """Counters for what ingest read and had to repair.

    Real Twitter payloads occasionally carry ``"text": null`` (deleted
    or withheld content); rather than letting ``None`` propagate into
    the feature extractor, ingest normalizes it to the empty string and
    counts the repair so operators can monitor feed quality (here for
    in-memory streams; a JSONL record is repaired where it is parsed).
    """

    n_read: int = 0
    n_null_text: int = 0

    def as_dict(self) -> Dict[str, int]:
        """JSON-safe counter snapshot."""
        return {"n_read": self.n_read, "n_null_text": self.n_null_text}


def sanitize_tweet(tweet: Tweet, stats: Optional[IngestStats] = None) -> Tweet:
    """Repair a structurally tolerable defect: ``None`` text -> ``""``.

    Anything beyond that (non-finite counters, absurd timestamps) is
    left for the reliability layer's quarantine to catch.
    """
    if tweet.text is None:
        if stats is not None:
            stats.n_null_text += 1
        return replace(tweet, text="")
    return tweet


def sanitize_stream(
    tweets: Iterable[Tweet], stats: Optional[IngestStats] = None
) -> Iterator[Tweet]:
    """Lazily sanitize an in-memory stream, counting reads and repairs."""
    for tweet in tweets:
        if stats is not None:
            stats.n_read += 1
        yield sanitize_tweet(tweet, stats)


def write_jsonl(tweets: Iterable[Tweet], path: PathLike) -> int:
    """Write tweets to a JSONL file; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for tweet in tweets:
            handle.write(tweet.to_json_line())
            handle.write("\n")
            count += 1
    return count


def read_jsonl(
    path: PathLike,
    stats: Optional[IngestStats] = None,
    metrics: Optional["MetricsRegistry"] = None,
) -> Iterator[TweetLine]:
    """Lazily read a JSONL file as unparsed
    :class:`~repro.data.tweet.TweetLine` records (blank lines skipped).

    A bad byte is read with ``surrogateescape``, so it costs its line
    at parse, not the stream. Pass an :class:`IngestStats` and/or a
    :class:`~repro.obs.metrics.MetricsRegistry` to count the reads
    (``ingest_reads_total``; the parse counts null-text repairs in
    ``ingest_null_text_total``, registered here).
    """
    m_read = None
    if metrics is not None:
        m_read = metrics.counter("ingest_reads_total")
        metrics.counter("ingest_null_text_total")
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            if stats is not None:
                stats.n_read += 1
            if m_read is not None:
                m_read.inc()
            yield TweetLine(line, lineno)


def strip_labels(tweets: Iterable[Tweet]) -> Iterator[Tweet]:
    """Yield copies of the tweets without labels (the unlabeled stream)."""
    for tweet in tweets:
        yield Tweet(
            tweet_id=tweet.tweet_id,
            text=tweet.text,
            created_at=tweet.created_at,
            user=tweet.user,
            is_retweet=tweet.is_retweet,
            is_reply=tweet.is_reply,
            label=None,
        )


def interleave_streams(*streams: Iterable[Tweet]) -> Iterator[Tweet]:
    """Merge timestamp-ordered streams into one ordered stream.

    Each input stream must already be sorted by ``created_at``; the
    merge is lazy (heap-based), so arbitrarily long streams are fine.
    """
    return heapq.merge(*streams, key=lambda t: t.created_at)

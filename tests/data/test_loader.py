"""Tests for JSONL stream I/O and stream composition."""

from __future__ import annotations

from itertools import islice

import pytest

from repro.data.loader import (
    interleave_streams,
    read_jsonl,
    strip_labels,
    write_jsonl,
)
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet, UserProfile


def _tweets(n, start=0.0, label="normal"):
    return [
        Tweet(
            tweet_id=f"t{start}-{i}",
            text=f"tweet number {i}",
            created_at=start + i * 10.0,
            user=UserProfile(user_id=str(i)),
            label=label,
        )
        for i in range(n)
    ]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        original = _tweets(25)
        assert write_jsonl(original, path) == 25
        loaded = [record.parse() for record in read_jsonl(path)]
        assert loaded == original

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        write_jsonl(_tweets(2), path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(list(read_jsonl(path))) == 2

    def test_synthetic_round_trip(self, tmp_path):
        path = tmp_path / "synth.jsonl"
        original = AbusiveDatasetGenerator(n_tweets=100, seed=1).generate_list()
        write_jsonl(original, path)
        assert [record.parse() for record in read_jsonl(path)] == original


class TestStreamComposition:
    def test_strip_labels(self):
        unlabeled = list(strip_labels(_tweets(3, label="abusive")))
        assert all(t.label is None for t in unlabeled)
        assert all(t.text for t in unlabeled)

    def test_interleave_orders_by_timestamp(self):
        a = _tweets(5, start=0.0)
        b = _tweets(5, start=5.0)
        merged = list(interleave_streams(a, b))
        times = [t.created_at for t in merged]
        assert times == sorted(times)
        assert len(merged) == 10

    def test_interleave_is_lazy(self):
        def infinite():
            i = 0
            while True:
                yield Tweet(
                    tweet_id=str(i), text="x", created_at=float(i),
                    user=UserProfile(user_id="0"),
                )
                i += 1

        merged = interleave_streams(infinite())
        assert list(islice(merged, 3))[2].created_at == 2.0

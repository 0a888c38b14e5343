"""Ingest tolerance: null-text normalization and repair counting."""

import json

from repro.data.firehose import FirehoseWorkload
from repro.data.loader import (
    IngestStats,
    read_jsonl,
    sanitize_stream,
    sanitize_tweet,
    write_jsonl,
)
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet
from repro.obs.metrics import MetricsRegistry
from repro.reliability import corrupt_tweet


def _tweets(n=20, seed=5):
    return AbusiveDatasetGenerator(
        n_tweets=n, n_days=1, seed=seed
    ).generate_list()


class TestSanitizeTweet:
    def test_none_text_becomes_empty_string(self):
        bad = corrupt_tweet(_tweets(1)[0], "none_text")
        stats = IngestStats()
        fixed = sanitize_tweet(bad, stats)
        assert fixed.text == ""
        assert stats.n_null_text == 1
        assert bad.text is None  # input untouched

    def test_clean_tweet_passes_through_unchanged(self):
        tweet = _tweets(1)[0]
        stats = IngestStats()
        assert sanitize_tweet(tweet, stats) is tweet
        assert stats.n_null_text == 0

    def test_other_corruption_not_masked(self):
        # Sanitization repairs only the tolerable defect; NaN counters
        # must still reach the quarantine layer.
        bad = corrupt_tweet(_tweets(1)[0], "nan_counts")
        assert sanitize_tweet(bad) is bad


class TestReadJsonl:
    def test_null_text_line_is_repaired_and_counted(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        tweets = _tweets(5)
        write_jsonl(tweets, path)
        payload = tweets[2].to_json()
        payload["text"] = None
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
        stats = IngestStats()
        # The reader counts reads; the parse repairs and counts the
        # null text where the record is processed.
        registry = MetricsRegistry()
        loaded = [record.parse(registry) for record in read_jsonl(path, stats)]
        assert len(loaded) == 6
        assert loaded[-1].text == ""
        assert stats.n_read == 6
        assert registry.total("ingest_null_text_total") == 1
        assert all(isinstance(t.text, str) for t in loaded)

    def test_missing_text_key_defaults_to_empty(self):
        tweet = Tweet.from_json({"id_str": "1", "created_at": 0.0})
        assert tweet.text == ""


class TestSanitizeStream:
    def test_counts_reads_and_repairs(self):
        tweets = _tweets(10)
        tweets[3] = corrupt_tweet(tweets[3], "none_text")
        tweets[7] = corrupt_tweet(tweets[7], "none_text")
        stats = IngestStats()
        out = list(sanitize_stream(tweets, stats))
        assert stats.as_dict() == {"n_read": 10, "n_null_text": 2}
        assert all(isinstance(t.text, str) for t in out)


class TestFirehoseIngest:
    def test_workload_stream_is_sanitized_and_counted(self):
        workload = FirehoseWorkload(n_unlabeled=50, n_labeled=50, seed=2)
        tweets = list(workload.stream())
        total = workload.n_unlabeled + workload.n_labeled
        assert len(tweets) == total
        assert workload.ingest_stats.n_read == total
        assert workload.ingest_stats.n_null_text == 0
        assert all(isinstance(t.text, str) for t in tweets)

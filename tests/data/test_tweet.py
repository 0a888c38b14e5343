"""Tests for the tweet data model and JSON round-tripping."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.data.tweet import SECONDS_PER_DAY, Tweet, TweetLine, UserProfile
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def user() -> UserProfile:
    return UserProfile(
        user_id="99",
        screen_name="sample",
        created_at=1000.0,
        statuses_count=500,
        listed_count=2,
        followers_count=120,
        friends_count=80,
    )


@pytest.fixture()
def tweet(user) -> Tweet:
    return Tweet(
        tweet_id="abc",
        text="hello world",
        created_at=1000.0 + 10 * SECONDS_PER_DAY,
        user=user,
        is_retweet=True,
        label="normal",
    )


class TestUserProfile:
    def test_account_age(self, user):
        now = user.created_at + 5 * SECONDS_PER_DAY
        assert user.account_age_days(now) == pytest.approx(5.0)

    def test_account_age_never_negative(self, user):
        assert user.account_age_days(user.created_at - 100) == 0.0

    def test_json_round_trip(self, user):
        assert UserProfile.from_json(user.to_json()) == user

    def test_from_json_tolerates_missing_fields(self):
        parsed = UserProfile.from_json({"id_str": "7"})
        assert parsed.user_id == "7"
        assert parsed.followers_count == 0


class TestTweet:
    def test_json_round_trip(self, tweet):
        assert Tweet.from_json(tweet.to_json()) == tweet

    def test_json_line_round_trip(self, tweet):
        assert Tweet.from_json_line(tweet.to_json_line()) == tweet

    def test_json_line_is_single_line(self, tweet):
        assert "\n" not in tweet.to_json_line()

    def test_label_omitted_when_none(self, tweet):
        tweet.label = None
        assert "label" not in tweet.to_json()

    def test_is_labeled(self, tweet):
        assert tweet.is_labeled()
        tweet.label = None
        assert not tweet.is_labeled()

    def test_day_index(self, tweet):
        assert tweet.day_index(stream_start=1000.0) == 10

    def test_payload_is_valid_json(self, tweet):
        parsed = json.loads(tweet.to_json_line())
        assert parsed["id_str"] == "abc"
        assert parsed["user"]["screen_name"] == "sample"


class TestTweetLine:
    def test_parse_is_the_tweet_written(self, tweet):
        assert TweetLine(tweet.to_json_line(), 3).parse() == tweet

    def test_pickles_to_its_line_alone(self, tweet):
        record = TweetLine(tweet.to_json_line(), 3)
        assert record.user.user_id == "99"  # parses and keeps the tweet
        copy = pickle.loads(pickle.dumps(record))
        assert (copy.line, copy.lineno, copy._tweet) == (record.line, 3, None)
        assert pickle.dumps(record) == pickle.dumps(TweetLine(record.line, 3))

    def test_attribute_reads_delegate_to_one_parse(self, tweet, monkeypatch):
        record = TweetLine(tweet.to_json_line())
        calls = []
        parse = TweetLine.parse
        monkeypatch.setattr(
            TweetLine, "parse", lambda self: calls.append(1) or parse(self)
        )
        assert (record.text, record.tweet_id) == ("hello world", "abc")
        assert record.is_labeled()
        assert calls == [1]

    def test_delegation_is_explicit_per_field(self, tweet):
        assert "__getattr__" not in vars(TweetLine)
        record = TweetLine(tweet.to_json_line())
        with pytest.raises(AttributeError):
            record.created_at  # not delegated: read it off record.tweet
        assert record._tweet is None  # a miss parses nothing
        assert record.tweet.created_at == tweet.created_at

    def test_null_text_is_repaired_and_counted_per_parse(self, tweet):
        payload = tweet.to_json()
        payload["text"] = None
        record = TweetLine(json.dumps(payload))
        registry = MetricsRegistry()
        assert record.parse(registry).text == ""
        assert record.text == ""
        assert registry.total("ingest_null_text_total") == 1

    @pytest.mark.parametrize(
        "line",
        [
            '{"id_str": "1", "text": "trunc',
            "[1,2,3]",
            '"just a string"',
            # A byte that is not UTF-8, as the reader decodes it.
            b'{"id_str": "1", "text": "caf\\xff"}'.decode(
                "utf-8", "surrogateescape"
            ),
            '{"id_str": "1", "created_at": "yesterday"}',
            '{"id_str": "1", "user": null}',
        ],
    )
    def test_a_line_that_is_not_a_tweet_names_its_number(self, line):
        with pytest.raises(ValueError, match="^JSONL line 12: "):
            TweetLine(line, 12).parse()

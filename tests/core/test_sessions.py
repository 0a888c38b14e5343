"""Tests for session-level detection (windowing + bullying sessions)."""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.core.sessions import (
    SESSION_FEATURE_NAMES,
    Session,
    SessionDetectionPipeline,
    TumblingWindowAssigner,
)
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.streamml.instance import ClassifiedInstance, Instance


def _classified(timestamp, predicted=0, y=None, x=None):
    if x is None:
        x = tuple(0.0 for _ in range(17))
    return ClassifiedInstance(
        instance=Instance(x=x, y=y, timestamp=timestamp),
        predicted=predicted,
        proba=(0.3, 0.7) if predicted == 1 else (0.7, 0.3),
    )


class TestTumblingWindowAssigner:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TumblingWindowAssigner(0.0)
        with pytest.raises(ValueError):
            TumblingWindowAssigner(10.0, allowed_lateness=-1)

    def test_window_closes_when_watermark_passes(self):
        assigner = TumblingWindowAssigner(window_size=100.0)
        assert assigner.add("u1", _classified(10.0)) == []
        assert assigner.add("u1", _classified(50.0)) == []
        closed = assigner.add("u1", _classified(150.0))
        assert len(closed) == 1
        assert closed[0].window_start == 0.0
        assert len(closed[0].classified) == 2

    def test_windows_are_per_user(self):
        assigner = TumblingWindowAssigner(window_size=100.0)
        assigner.add("u1", _classified(10.0))
        assigner.add("u2", _classified(20.0))
        assert len(assigner._open) == 2
        closed = assigner.add("u1", _classified(250.0))
        assert {w.user_id for w in closed} == {"u1", "u2"}

    def test_late_tweet_dropped(self):
        assigner = TumblingWindowAssigner(window_size=100.0)
        assigner.add("u1", _classified(10.0))
        assigner.add("u1", _classified(250.0))  # closes [0, 100)
        assigner.add("u1", _classified(20.0))  # too late
        assert assigner.n_late_dropped == 1

    def test_allowed_lateness_tolerates_disorder(self):
        assigner = TumblingWindowAssigner(window_size=100.0,
                                          allowed_lateness=100.0)
        assigner.add("u1", _classified(10.0))
        assigner.add("u1", _classified(150.0))
        # Watermark is 50, so [0, 100) is still open for this tweet.
        assigner.add("u1", _classified(90.0))
        assert assigner.n_late_dropped == 0
        closed = assigner.flush()
        first = [w for w in closed if w.window_start == 0.0][0]
        assert len(first.classified) == 2

    def test_flush_closes_everything(self):
        assigner = TumblingWindowAssigner(window_size=100.0)
        assigner.add("u1", _classified(10.0))
        assigner.add("u2", _classified(20.0))
        assert len(assigner.flush()) == 2
        assert len(assigner._open) == 0


class TestSessionLabeling:
    def _session(self, n_labeled, n_aggressive):
        return Session(
            user_id="u", window_start=0.0, window_end=100.0,
            n_tweets=n_labeled, n_predicted_aggressive=0,
            n_labeled=n_labeled, n_labeled_aggressive=n_aggressive,
            features=(0.0,) * len(SESSION_FEATURE_NAMES),
        )

    def test_bullying_above_threshold(self):
        assert self._session(4, 3).true_label(0.5) == 1

    def test_not_bullying_below_threshold(self):
        assert self._session(4, 1).true_label(0.5) == 0

    def test_unlabeled_session(self):
        assert self._session(0, 0).true_label(0.5) is None


class TestSessionDetectionPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        # A pool of recurring users makes multi-tweet sessions common.
        stream = AbusiveDatasetGenerator(
            n_tweets=6000, seed=3, user_pool_size=150
        ).generate_list()
        pipeline = SessionDetectionPipeline(
            PipelineConfig(n_classes=2),
            window_size=6 * 3600.0,
        )
        return pipeline.process_stream(stream), pipeline

    def test_sessions_emitted(self, result):
        session_result, pipeline = result
        assert session_result.n_sessions > 50
        assert all(s.n_tweets >= 2 for s in pipeline.sessions)

    def test_feature_vector_width(self, result):
        _, pipeline = result
        assert all(
            len(s.features) == len(SESSION_FEATURE_NAMES)
            for s in pipeline.sessions
        )

    def test_session_classifier_learns(self, result):
        session_result, _ = result
        # Bullying sessions are common with 37% aggressive tweets, so a
        # useful session classifier must beat coin flipping comfortably.
        assert session_result.metrics["accuracy"] > 0.75

    def test_flagged_users_are_predominantly_aggressive(self, result):
        session_result, pipeline = result
        stream_labels = {}
        for session in pipeline.sessions:
            stats = stream_labels.setdefault(session.user_id, [0, 0])
            stats[0] += session.n_labeled_aggressive
            stats[1] += session.n_labeled
        top_flagged = session_result.flagged_users[:10]
        rates = [
            stream_labels[u][0] / stream_labels[u][1]
            for u in top_flagged if stream_labels.get(u, [0, 0])[1] > 0
        ]
        assert rates and sum(rates) / len(rates) > 0.5

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SessionDetectionPipeline(bullying_threshold=0.0)

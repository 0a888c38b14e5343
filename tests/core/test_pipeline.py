"""Tests for the end-to-end pipeline."""

from __future__ import annotations

import collections

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline, run_pipeline
from repro.data.loader import strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.obs.metrics import Counter, Histogram


class TestProcessing:
    def test_processes_labeled_stream(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        result = pipeline.process_stream(small_stream)
        assert result.n_processed == len(small_stream)
        assert result.n_labeled == len(small_stream)
        assert result.n_unlabeled == 0
        assert 0.0 <= result.metrics["f1"] <= 1.0

    def test_learns_above_majority_baseline(self, medium_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        result = pipeline.process_stream(medium_stream)
        majority = sum(
            1 for t in medium_stream if t.label == "normal"
        ) / len(medium_stream)
        assert result.metrics["accuracy"] > majority + 0.05

    def test_unlabeled_stream_generates_alerts(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        # Train on the labeled stream, then process it unlabeled.
        pipeline.process_stream(small_stream)
        for tweet in strip_labels(small_stream[:500]):
            pipeline.process(tweet)
        assert pipeline.n_unlabeled == 500
        assert pipeline.alert_manager.n_alerts > 0
        assert len(pipeline.sampler.sample()) > 0

    def test_classified_instance_fields(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=3))
        classified = pipeline.process(small_stream[0])
        assert classified.predicted in (0, 1, 2)
        assert sum(classified.proba) == pytest.approx(1.0)

    def test_three_class_setup(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=3))
        result = pipeline.process_stream(small_stream)
        assert result.metrics["f1"] > 0.5

    def test_predict_is_stateless(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        pipeline.process_stream(small_stream[:1000])
        seen_before = pipeline.model.instances_seen
        label = pipeline.predict_label(small_stream[1000])
        assert label in ("normal", "aggressive")
        assert pipeline.model.instances_seen == seen_before

    def test_run_pipeline_helper(self, small_stream):
        result = run_pipeline(small_stream[:300], PipelineConfig(n_classes=2))
        assert result.n_processed == 300


class TestConfigurationEffects:
    def test_adaptive_bow_grows(self, medium_stream):
        pipeline = AggressionDetectionPipeline(
            PipelineConfig(n_classes=2, adaptive_bow=True)
        )
        result = pipeline.process_stream(medium_stream)
        assert result.bow_size > 347
        assert result.bow_size_history

    def test_fixed_bow_stays(self, small_stream):
        pipeline = AggressionDetectionPipeline(
            PipelineConfig(n_classes=2, adaptive_bow=False)
        )
        result = pipeline.process_stream(small_stream)
        assert result.bow_size == 347
        assert result.bow_size_history == []

    def test_normalization_critical_for_slr(self, medium_stream):
        on = run_pipeline(
            medium_stream,
            PipelineConfig(n_classes=2, model="slr"),
        )
        off = run_pipeline(
            medium_stream,
            PipelineConfig(n_classes=2, model="slr", normalization="none"),
        )
        # The Fig. 8 effect: normalization dramatically helps SLR.
        assert on.metrics["f1"] > off.metrics["f1"] + 0.10

    def test_all_models_run(self, small_stream):
        for model in ("ht", "arf", "slr", "gnb", "majority"):
            result = run_pipeline(
                small_stream[:600], PipelineConfig(n_classes=2, model=model)
            )
            assert result.n_processed == 600

    def test_history_curve(self, small_stream):
        result = run_pipeline(
            small_stream, PipelineConfig(n_classes=2, record_every=200)
        )
        curve = result.curve("f1")
        assert len(curve) >= 9
        assert curve[0][0] == 200


class TestDeterminism:
    def test_same_config_same_result(self, small_stream):
        a = run_pipeline(small_stream, PipelineConfig(n_classes=2, seed=5))
        b = run_pipeline(small_stream, PipelineConfig(n_classes=2, seed=5))
        assert a.metrics == b.metrics


class TestTelemetryBudget:
    """Counted, not timed: what one block books, by metric.

    Every ``Histogram`` observation and ``Counter`` increment a block
    causes is one call per stage and one per counter, whatever the
    block's size; ``process`` is the block of one. (The partition
    path's budget is pinned in ``tests/engine/test_worker_telemetry.py``.)
    """

    @staticmethod
    def _booked(monkeypatch, pipeline):
        """A tally of ``metric[stage]`` bookings, filled as they happen."""
        names = {}
        registry = pipeline.metrics
        for kind in (registry._histograms, registry._counters):
            for (name, labels), child in kind.items():
                stage = dict(labels).get("stage")
                names[id(child)] = f"{name}[{stage}]" if stage else name
        booked = collections.Counter()

        def counted(method):
            def wrapper(self, *args):
                booked[names.get(id(self), "unregistered")] += 1
                return method(self, *args)

            return wrapper

        monkeypatch.setattr(Histogram, "observe", counted(Histogram.observe))
        monkeypatch.setattr(
            Histogram, "observe_repeated", counted(Histogram.observe_repeated)
        )
        monkeypatch.setattr(Counter, "inc", counted(Counter.inc))
        return booked

    def test_bookings_per_tweet_are_exactly_these(
        self, small_stream, monkeypatch
    ):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        pipeline.process_stream(small_stream[:1500])
        booked = self._booked(monkeypatch, pipeline)
        common = {
            "tweet_stage_seconds[extract]": 1,
            "tweet_stage_seconds[normalize]": 1,
            "tweet_stage_seconds[predict]": 1,
            "tweets_processed_total": 1,
        }

        pipeline.process(small_stream[1500])
        assert booked == {
            **common,
            "tweet_stage_seconds[learn]": 1,
            "tweets_labeled_total": 1,
        }  # 4 observes + 2 incs

        seen = set()
        for tweet in strip_labels(small_stream[1501:]):
            booked.clear()
            alerts = pipeline.alert_manager.n_alerts
            pipeline.process(tweet)
            raised = pipeline.alert_manager.n_alerts - alerts
            seen.add(raised)
            assert booked == {
                **common,
                "tweet_stage_seconds[alert]": 1,
                "tweets_unlabeled_total": 1,
                **({"alerts_total": 1} if raised else {}),
            }  # 4 observes + 2 incs, + 1 inc when it alerts
        assert seen == {0, 1}

    @pytest.mark.parametrize("size", [32, 256])
    def test_a_block_books_once_per_stage_whatever_its_size(
        self, small_stream, monkeypatch, size
    ):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        pipeline.process_stream(small_stream[:1500])
        booked = self._booked(monkeypatch, pipeline)
        # Labelled and unlabelled rows interleaved in one block.
        tweets = small_stream[1500:1500 + size]
        mixed = [
            labeled if index % 2 else unlabeled
            for index, (labeled, unlabeled) in enumerate(
                zip(tweets, strip_labels(tweets))
            )
        ]
        alerts = pipeline.alert_manager.n_alerts
        pipeline.process_block(mixed)
        raised = pipeline.alert_manager.n_alerts > alerts
        assert booked == {
            "tweet_stage_seconds[extract]": 1,
            "tweet_stage_seconds[normalize]": 1,
            "tweet_stage_seconds[predict]": 1,
            "tweet_stage_seconds[learn]": 1,
            "tweet_stage_seconds[alert]": 1,
            "tweets_processed_total": 1,
            "tweets_labeled_total": 1,
            "tweets_unlabeled_total": 1,
            **({"alerts_total": 1} if raised else {}),
        }  # 5 observes + 3 incs for 32 rows or 256, + 1 when it alerts
        hists = pipeline._stage_hists
        assert hists["extract"].count == 1500 + size
        assert hists["learn"].count == 1500 + size // 2
        assert hists["alert"].count == size // 2

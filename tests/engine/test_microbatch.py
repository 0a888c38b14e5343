"""Tests for the micro-batch engine (Fig. 2 dataflow)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.loader import strip_labels
from repro.engine.microbatch import (
    MicroBatchEngine,
    StageTimings,
    _PartitionOutput,
    _round_robin_partitions,
)
from repro.engine.replay import model_state_digest
from repro.reliability.deadletter import DeadLetterQueue
from repro.reliability.faults import corrupting_stream, corruption_mask
from repro.streamml.serialize import model_to_dict


class TestRoundRobinPartitions:
    def test_round_robin_partitioning(self):
        assert _round_robin_partitions([1, 2, 3, 4, 5], 2) == [
            [1, 3, 5],
            [2, 4],
        ]

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            _round_robin_partitions([1], 0)

    def test_more_partitions_than_items(self):
        assert _round_robin_partitions([1], 4) == [[1], [], [], []]


class TestExecution:
    def test_processes_whole_stream(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=500
        )
        result = engine.run(small_stream)
        assert result.n_processed == len(small_stream)
        assert result.n_labeled == len(small_stream)
        assert len(result.batches) == 4

    def test_partial_final_batch(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=2, batch_size=1500
        )
        result = engine.run(small_stream[:1600])
        assert len(result.batches) == 2
        assert result.batches[-1].n_processed == 100

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MicroBatchEngine(n_partitions=0)
        with pytest.raises(ValueError):
            MicroBatchEngine(batch_size=0)

    def test_metrics_close_to_sequential(self, medium_stream):
        """Micro-batch training must track the per-record pipeline.

        The global model only refreshes at batch boundaries, so a small
        gap is expected — but it should stay within a few F1 points.
        """
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=500
        )
        batch_f1 = engine.run(medium_stream).metrics["f1"]
        sequential = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        seq_f1 = sequential.process_stream(medium_stream).metrics["f1"]
        assert batch_f1 > seq_f1 - 0.06

    def test_partition_count_does_not_change_results_much(self, medium_stream):
        def run(n_partitions):
            engine = MicroBatchEngine(
                PipelineConfig(n_classes=2),
                n_partitions=n_partitions,
                batch_size=1000,
            )
            return engine.run(medium_stream[:4000]).metrics["f1"]

        assert abs(run(1) - run(8)) < 0.08

    def test_throughput_positive(self, small_stream):
        engine = MicroBatchEngine(PipelineConfig(n_classes=2), batch_size=1000)
        result = engine.run(small_stream)
        assert result.throughput > 0

    def test_unlabeled_alerting_and_sampling(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=2, batch_size=500
        )
        engine.run(small_stream)
        engine.run(list(strip_labels(small_stream[:500])))
        assert engine.n_unlabeled == 500
        assert engine.alert_manager.n_alerts > 0
        assert len(engine.sampler.sample()) > 0


class TestQuarantineLoopEquivalence:
    """A dead-letter queue only adds validation and a try/except around
    each tweet's extraction to ``_PartitionTask._execute``'s one body; on
    a clean stream the run with a queue must be the same detector as the
    run without, bit for bit."""

    @pytest.mark.parametrize("model", ["ht", "slr"])
    @pytest.mark.parametrize(
        "normalization", ["minmax", "minmax_no_outliers", "zscore", "none"]
    )
    def test_dead_letter_queue_changes_nothing_on_a_clean_stream(
        self, small_stream, normalization, model
    ):
        stream = small_stream[:1200] + list(
            strip_labels(small_stream[1200:1500])
        )

        def run(dead_letters):
            engine = MicroBatchEngine(
                PipelineConfig(
                    n_classes=2, model=model, normalization=normalization
                ),
                n_partitions=2,
                batch_size=500,
                dead_letters=dead_letters,
            )
            result = engine.run(stream)
            return (
                model_to_dict(engine.model),
                result.metrics,
                engine.alert_manager.alerts,
            )

        queue = DeadLetterQueue()
        assert run(queue) == run(None)
        assert len(queue) == 0


class TestQuarantineOnDirtyStream:
    """In-partition quarantine over a corrupted stream: every corrupt
    tweet becomes one ``validate`` record, the survivors train the same
    detector on any runner, and the registry conserves every tweet.
    The literals were recorded on the commit that still had a separate
    per-row quarantine body."""

    DIGEST = "513bab66ffaa389d1357a2cc1c4dbdc4be8834b211332743dde7c9a3fe7a8e14"
    METRICS = {
        "accuracy": 0.7728971962616823,
        "precision": 0.7852862285337653,
        "recall": 0.7728971962616823,
        "f1": 0.756058744391984,
        "macro_f1": 0.7289131189535614,
        "kappa": 0.4727909777729115,
        "kappa_m": 0.3955223880597016,
    }
    N_ALERTS = 105

    @pytest.mark.parametrize("runner", ["serial", "processes"])
    def test_corrupt_rows_quarantined_and_detector_pinned(
        self, small_stream, runner
    ):
        clean = small_stream[:1200] + list(
            strip_labels(small_stream[1200:1500])
        )
        stream = list(corrupting_stream(clean, rate=0.1, seed=7))
        queue = DeadLetterQueue()
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=500,
            runner=runner,
            n_workers=2,
            dead_letters=queue,
        )
        with engine:
            result = engine.run(stream)
        n_corrupt = sum(corruption_mask(len(clean), rate=0.1, seed=7))
        assert queue.by_stage() == {"validate": n_corrupt}
        assert model_state_digest(engine.model) == self.DIGEST
        assert result.metrics == self.METRICS
        assert len(engine.alert_manager.alerts) == self.N_ALERTS
        registry = engine.metrics
        assert registry.total("tweets_processed_total") + registry.total(
            "tweets_quarantined_total"
        ) == registry.total("tweets_ingested_total") == len(stream)


class TestPartitionLocalStatistics:
    """Op #1/#6: stats are computed partition-side and merged, never
    shipped as raw vectors."""

    def test_partition_output_carries_no_raw_vectors(self):
        fields = {f.name for f in dataclasses.fields(_PartitionOutput)}
        assert "raw_vectors" not in fields
        assert "local_normalizer" in fields

    def test_global_normalizer_sees_every_tweet(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=500
        )
        engine.run(small_stream)
        assert engine.normalizer.observed == len(small_stream)

    def test_broadcast_normalizer_not_mutated_by_partitions(
        self, small_stream
    ):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=500
        )
        engine.process_batch(small_stream[:500])
        before = engine.normalizer.observed
        # Partitions deep-copy the broadcast statistics; only the
        # driver-side merge may advance the global normalizer.
        tasks_seen = engine.normalizer
        engine.process_batch(small_stream[500:1000])
        assert engine.normalizer is tasks_seen
        assert engine.normalizer.observed == before + 500

    def test_first_batch_normalization_is_self_inclusive(self, small_stream):
        """Batch 1 must not normalize every feature to 0.0 (stale-stats
        bug). An unobserved MinMax transform maps everything to 0.0, so
        if partitions transformed with only the broadcast (empty)
        statistics the whole first batch would collapse; with
        partition-local observe the batch's own statistics are in
        effect from the first tweet."""
        config = PipelineConfig(n_classes=2, normalization="minmax")
        engine = MicroBatchEngine(config, n_partitions=1, batch_size=500)
        # Unlabeled tweets reach the driver-side sampler with their
        # normalized features attached — inspect those.
        engine.process_batch(list(strip_labels(small_stream[:500])))
        sampled = engine.sampler.sample()
        assert sampled
        nonzero = sum(
            1 for item in sampled if any(v != 0.0 for v in item.instance.x)
        )
        assert nonzero > 0.9 * len(sampled)

    def test_matches_sequential_pipeline_closely(self, medium_stream):
        """Regression pin for the engine-divergence bug: with one
        partition and small batches the only remaining difference from
        the sequential pipeline is model staleness at batch boundaries,
        so the metrics must agree tightly."""
        stream = medium_stream[:4000]
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=1, batch_size=250
        )
        batch_metrics = engine.run(stream).metrics
        sequential = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        seq_metrics = sequential.process_stream(stream).metrics
        assert batch_metrics["f1"] == pytest.approx(
            seq_metrics["f1"], abs=0.03
        )
        assert batch_metrics["accuracy"] == pytest.approx(
            seq_metrics["accuracy"], abs=0.03
        )


class TestStageTimings:
    def test_per_batch_and_per_run_timings(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=500
        )
        result = engine.run(small_stream)
        assert len(result.batches) == 4
        for batch in result.batches:
            stages = batch.stage_seconds
            assert stages.partition_execute > 0
            assert all(v >= 0 for v in stages.as_dict().values())
            assert stages.total <= batch.elapsed_seconds + 1e-6
        totals = result.stage_seconds
        assert totals.partition_execute == pytest.approx(
            sum(b.stage_seconds.partition_execute for b in result.batches)
        )
        assert set(totals.as_dict()) == {
            "partition_execute",
            "model_merge",
            "bow_absorb",
            "normalizer_merge",
            "drain",
        }

    def test_driver_side_work_is_small(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=1000
        )
        result = engine.run(small_stream)
        stages = result.stage_seconds
        assert stages.driver_seconds < 0.5 * stages.partition_execute

    def test_total_and_driver_seconds(self):
        timings = StageTimings(
            partition_execute=3.0, model_merge=0.5, drain=0.25
        )
        assert timings.total == pytest.approx(3.75)
        assert timings.driver_seconds == pytest.approx(0.75)


class TestModelKinds:
    @pytest.mark.parametrize("model", ["ht", "slr", "gnb", "arf", "knn", "ozabag", "ozaboost"])
    def test_all_mergeable_models(self, small_stream, model):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2, model=model),
            n_partitions=3,
            batch_size=500,
        )
        result = engine.run(small_stream)
        majority = sum(
            1 for t in small_stream if t.label == "normal"
        ) / len(small_stream)
        assert result.metrics["accuracy"] > majority - 0.10


class TestAdaptiveBow:
    def test_bow_grows_through_deltas(self, medium_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2, adaptive_bow=True),
            n_partitions=4,
            batch_size=1000,
        )
        engine.run(medium_stream)
        assert len(engine.bag_of_words) > 347

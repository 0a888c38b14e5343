"""Overload robustness: bounded ingest, shedding, adaptive degradation."""

import itertools
import json
import math

import pytest

from repro.core.features import DegradeTier
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.firehose import ArrivalSchedule, FirehoseWorkload
from repro.data.loader import strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.sequential import SequentialEngine
from repro.obs.metrics import MetricsRegistry
from repro.reliability import StreamSupervisor
from repro.reliability.supervisor import SUPERVISOR_CHECKPOINT_VERSION
from repro.streamml.serialize import SerializationError
from repro.reliability.overload import BoundedIngestQueue, OverloadController

#: Per-tweet service model by degrade tier: cheaper features run faster.
SERVICE_MODEL = {0: 0.0008, 1: 0.0005, 2: 0.0003}


def _labeled(n, seed=3):
    generator = AbusiveDatasetGenerator(n_tweets=n, seed=seed, n_days=1)
    return generator.generate_list()


def _unlabeled(n, seed=11):
    generator = AbusiveDatasetGenerator(n_tweets=n, seed=seed, n_days=1)
    return list(strip_labels(generator.generate()))


class _Crash(Exception):
    """Simulated hard driver death mid-stream."""


def _crashing_arrivals(arrivals, at):
    for index, pair in enumerate(arrivals):
        if index >= at:
            raise _Crash(f"driver died at arrival {index}")
        yield pair


class TestBoundedIngestQueue:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            BoundedIngestQueue(capacity=0)
        with pytest.raises(ValueError):
            BoundedIngestQueue(policy="no-such-policy")
        with pytest.raises(ValueError):
            BoundedIngestQueue(high_watermark=1.5)
        with pytest.raises(ValueError):
            BoundedIngestQueue(high_watermark=0.5, low_watermark=0.8)
        with pytest.raises(ValueError):
            BoundedIngestQueue(sample_keep=2.0)

    def test_drain_preserves_arrival_order_across_label_classes(self):
        # Labeled and unlabeled live in separate deques internally;
        # the merge by sequence number must restore offer order.
        labeled = _labeled(5)
        unlabeled = _unlabeled(5)
        mixed = [t for pair in zip(labeled, unlabeled) for t in pair]
        queue = BoundedIngestQueue(capacity=20)
        for tweet in mixed:
            assert queue.offer(tweet)
        drained = queue.drain(20)
        assert [t.tweet_id for t in drained] == [t.tweet_id for t in mixed]

    def test_drop_oldest_evicts_oldest_unlabeled(self):
        tweets = _unlabeled(4)
        queue = BoundedIngestQueue(capacity=3, policy="drop-oldest")
        for tweet in tweets[:3]:
            queue.offer(tweet)
        assert queue.offer(tweets[3])  # arrival admitted, oldest shed
        assert queue.n_shed == 1
        assert [t.tweet_id for t in queue.drain(3)] == [
            t.tweet_id for t in tweets[1:]
        ]

    def test_drop_newest_sheds_the_arrival(self):
        tweets = _unlabeled(4)
        queue = BoundedIngestQueue(capacity=3, policy="drop-newest")
        for tweet in tweets[:3]:
            queue.offer(tweet)
        assert not queue.offer(tweets[3])
        assert queue.n_shed == 1
        assert [t.tweet_id for t in queue.drain(3)] == [
            t.tweet_id for t in tweets[:3]
        ]

    def test_sample_policy_is_deterministic(self):
        tweets = _unlabeled(200)

        def run():
            queue = BoundedIngestQueue(
                capacity=20, policy="sample", sample_keep=0.3, seed=29
            )
            for tweet in tweets:
                queue.offer(tweet)
            return [t.tweet_id for t in queue.drain(20)], queue.n_shed

        assert run() == run()

    def test_labeled_tweets_survive_any_burst(self):
        labeled = _labeled(30)
        unlabeled = _unlabeled(300)
        mixed = list(
            itertools.chain(
                *itertools.zip_longest(unlabeled, labeled)
            )
        )
        queue = BoundedIngestQueue(capacity=50)
        survivors = []
        for index, tweet in enumerate(t for t in mixed if t is not None):
            queue.offer(tweet)
            if index % 100 == 99:  # server far slower than the burst
                survivors.extend(queue.drain(20))
        survivors.extend(queue.drain(len(queue)))
        kept_labeled = [t for t in survivors if t.is_labeled()]
        assert len(kept_labeled) == len(labeled)
        assert queue.n_shed > 0

    def test_all_labeled_queue_soft_admits_and_counts(self):
        tweets = _labeled(4)
        queue = BoundedIngestQueue(capacity=2)
        for tweet in tweets:
            assert queue.offer(tweet)
        assert len(queue) == 4  # labeled are never shed
        assert queue.n_over_capacity == 2
        assert queue.n_shed == 0

    def test_watermark_signals(self):
        queue = BoundedIngestQueue(
            capacity=10, high_watermark=0.8, low_watermark=0.5
        )
        for tweet in _unlabeled(6):
            queue.offer(tweet)
        assert queue.low_watermark < queue.depth_fraction
        assert queue.depth_fraction < queue.high_watermark
        for tweet in _unlabeled(2, seed=12):
            queue.offer(tweet)
        assert queue.depth_fraction >= queue.high_watermark
        queue.drain(4)
        assert queue.depth_fraction <= queue.low_watermark

    @pytest.mark.parametrize("policy", ["drop-oldest", "drop-newest", "sample"])
    def test_accounting_invariant(self, policy):
        # Every offered tweet is either drained or shed — exactly once.
        queue = BoundedIngestQueue(capacity=40, policy=policy)
        drained = 0
        for index, tweet in enumerate(_unlabeled(500)):
            queue.offer(tweet)
            if index % 90 == 0:
                drained += len(queue.drain(25))
        drained += len(queue.drain(len(queue)))
        assert queue.n_offered == 500
        assert drained + queue.n_shed == 500
        assert queue.n_drained == drained

    def test_shed_metric_matches_counter(self):
        registry = MetricsRegistry()
        queue = BoundedIngestQueue(capacity=5, metrics=registry)
        for tweet in _unlabeled(20):
            queue.offer(tweet)
        assert queue.n_shed == 15
        assert registry.counter_value(
            "overload_shed_total", policy="drop-oldest"
        ) == 15
        assert registry.gauge_value("ingest_queue_depth") == 5

    def test_serialization_round_trip_continues_exactly(self):
        # A restored queue must behave bit-for-bit like the original —
        # same pending backlog, same counters, same shed-RNG state.
        stream = _unlabeled(120)
        queue = BoundedIngestQueue(
            capacity=15, policy="sample", sample_keep=0.4, seed=17
        )
        for tweet in stream[:60]:
            queue.offer(tweet)
        payload = json.loads(json.dumps(queue.to_dict()))
        restored = BoundedIngestQueue.from_dict(payload)
        assert restored.as_counters() == queue.as_counters()
        for tweet in stream[60:]:
            assert queue.offer(tweet) == restored.offer(tweet)
        assert [t.tweet_id for t in queue.drain(15)] == [
            t.tweet_id for t in restored.drain(15)
        ]


class TestOverloadController:
    def _controller(self, **kwargs):
        kwargs.setdefault("batch_deadline_s", 1.0)
        kwargs.setdefault("batch_size", 8)
        kwargs.setdefault("min_batch_size", 2)
        return OverloadController(**kwargs)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            OverloadController(batch_deadline_s=0.0, batch_size=8)
        with pytest.raises(ValueError):
            OverloadController(
                batch_deadline_s=1.0, batch_size=8, min_batch_size=9
            )
        with pytest.raises(ValueError):
            self._controller(degrade_after=0)

    def test_hysteresis_requires_consecutive_pressure(self):
        controller = self._controller(degrade_after=2)
        controller.observe_batch(2.0, queue_fraction=0.0)  # miss
        controller.observe_batch(0.9, queue_fraction=0.0)  # neutral: resets
        controller.observe_batch(2.0, queue_fraction=0.0)  # miss again
        assert controller.batch_size == 8 and controller.tier == 0
        controller.observe_batch(2.0, queue_fraction=0.0)  # 2nd consecutive
        assert controller.batch_size == 4

    def test_degrade_shrinks_batch_before_switching_tier(self):
        controller = self._controller(degrade_after=1)
        sizes, tiers = [], []
        for _ in range(5):
            controller.observe_batch(2.0, queue_fraction=0.0)
            sizes.append(controller.batch_size)
            tiers.append(controller.tier)
        assert sizes == [4, 2, 2, 2, 2]
        assert tiers == [
            DegradeTier.FULL,
            DegradeTier.FULL,
            DegradeTier.NO_POS,
            DegradeTier.TEXT_ONLY,
            DegradeTier.TEXT_ONLY,  # already at the floor: holds
        ]
        assert controller.max_tier_reached == DegradeTier.TEXT_ONLY
        assert controller.n_degrades == 2
        assert controller.n_resizes == 2

    def test_recovery_restores_tier_before_growing_batch(self):
        controller = self._controller(degrade_after=1, recover_after=1)
        for _ in range(4):  # down to min batch + TEXT_ONLY
            controller.observe_batch(2.0, queue_fraction=0.0)
        tiers, sizes = [], []
        for _ in range(5):
            controller.observe_batch(0.1, queue_fraction=0.0)
            tiers.append(controller.tier)
            sizes.append(controller.batch_size)
        assert tiers[:2] == [DegradeTier.NO_POS, DegradeTier.FULL]
        assert sizes[2:] == [3, 4, 6]  # grow_factor 1.5 toward max
        assert controller.n_recovers == 2

    def test_backpressure_alone_is_pressure(self):
        queue = BoundedIngestQueue(capacity=10, high_watermark=0.8)
        controller = self._controller(degrade_after=1, queue=queue)
        for tweet in _unlabeled(9):
            queue.offer(tweet)
        controller.observe_batch(0.1)  # fast batch, but queue at 90%
        assert controller.batch_size == 4
        assert controller.n_deadline_misses == 0

    def test_deadline_misses_counted_and_published(self):
        registry = MetricsRegistry()
        controller = self._controller(metrics=registry, engine_label="seq")
        controller.observe_batch(2.0, queue_fraction=0.0)
        controller.observe_batch(0.5, queue_fraction=0.0)
        assert controller.n_deadline_misses == 1
        assert registry.counter_value(
            "batch_deadline_miss_total", engine="seq"
        ) == 1
        # One miss then a comfortable batch: hysteresis holds the size.
        assert registry.gauge_value("controller_batch_size") == 8
        assert registry.gauge_value("degrade_level") == 0

    def test_poll_reads_batch_seconds_deltas(self):
        registry = MetricsRegistry()
        controller = self._controller(
            metrics=registry, engine_label="microbatch", degrade_after=1
        )
        assert not controller.poll(queue_fraction=0.0)  # nothing yet
        hist = registry.histogram("batch_seconds", engine="microbatch")
        hist.observe(3.0)
        hist.observe(5.0)
        assert controller.poll(queue_fraction=0.0)  # mean 4.0 > deadline
        assert controller.n_batches == 1
        assert controller.n_deadline_misses == 1
        assert not controller.poll(queue_fraction=0.0)  # no new batches
        with pytest.raises(RuntimeError):
            self._controller().poll()

    def test_serialization_round_trip_mid_episode(self):
        controller = self._controller(degrade_after=2, recover_after=2)
        for seconds in (2.0, 2.0, 2.0, 2.0, 2.0, 0.1):
            controller.observe_batch(seconds, queue_fraction=0.0)
        restored = OverloadController.from_dict(
            json.loads(json.dumps(controller.to_dict()))
        )
        assert restored.to_dict() == controller.to_dict()
        # Continued observations make identical decisions.
        for seconds in (0.1, 0.1, 2.0, 0.1):
            controller.observe_batch(seconds, queue_fraction=0.0)
            restored.observe_batch(seconds, queue_fraction=0.0)
        assert restored.to_dict() == controller.to_dict()

    def test_restores_a_payload_with_the_retired_ladder_keys(self):
        # Written by the controller that still took recovery_headroom,
        # shrink_factor and grow_factor as keywords (at their defaults):
        # two shrinks, one degrade, one recovery.
        parent = {
            "batch_deadline_s": 1.0, "batch_size": 2, "min_batch_size": 2,
            "max_batch_size": 8, "degrade_after": 1, "recover_after": 1,
            "recovery_headroom": 0.5, "shrink_factor": 0.5,
            "grow_factor": 1.5, "engine_label": "microbatch", "tier": 0,
            "max_tier_reached": 1, "pressure_streak": 0,
            "comfort_streak": 0, "n_batches": 4, "n_deadline_misses": 3,
            "n_degrades": 1, "n_recovers": 1, "n_resizes": 2,
            "polled_count": 0, "polled_sum": 0.0, "n_partitions": None,
            "min_partitions": None, "max_partitions": None,
            "n_partition_resizes": 0, "n_stragglers_seen": 0,
        }
        restored = OverloadController.from_dict(parent)
        retired = {"recovery_headroom", "shrink_factor", "grow_factor"}
        assert restored.to_dict() == {
            k: v for k, v in parent.items() if k not in retired
        }
        # The growth ceiling survived: comfort grows 2 -> 3 -> 4 -> 6 -> 8.
        sizes = []
        for _ in range(5):
            restored.observe_batch(0.1, queue_fraction=0.0)
            sizes.append(restored.batch_size)
        assert sizes == [3, 4, 6, 8, 8]


class TestEngineControllerIntegration:
    def test_microbatch_engine_degrades_under_impossible_deadline(self):
        engine = MicroBatchEngine(n_partitions=2, batch_size=8)
        controller = OverloadController(
            batch_deadline_s=1e-9,  # every batch misses
            batch_size=8,
            min_batch_size=2,
            degrade_after=1,
            metrics=engine.metrics,
        )
        engine.controller = controller
        tweets = _labeled(40)
        for start in range(0, 40, 8):
            engine.process_batch(tweets[start : start + 8])
        assert engine.batch_size == 2
        assert engine.degrade_tier == DegradeTier.TEXT_ONLY
        # Each result records the tier its batch *ran* at; a degrade
        # decision only affects the following batch.
        assert [b.degrade_tier for b in engine.batches] == [0, 0, 0, 1, 2]

    def test_sequential_engine_drives_controller(self):
        engine = SequentialEngine()
        controller = OverloadController(
            batch_deadline_s=1e-9,
            batch_size=8,
            min_batch_size=2,
            degrade_after=1,
            metrics=engine.metrics,
            engine_label="sequential",
        )
        engine.controller = controller
        engine.process_chunk(_labeled(8))
        engine.process_chunk(_labeled(8, seed=5))
        engine.process_chunk(_labeled(8, seed=6))
        assert controller.n_deadline_misses == 3
        assert controller.batch_size == 2
        assert engine.pipeline.degrade_tier == DegradeTier.NO_POS


class TestSupervisedOverload:
    def _build(self, tmp_dir, engine_kind, batch=100, capacity=300):
        if engine_kind == "microbatch":
            engine = MicroBatchEngine(n_partitions=2, batch_size=batch)
        else:
            engine = SequentialEngine()
        queue = BoundedIngestQueue(capacity=capacity, metrics=engine.metrics)
        controller = OverloadController(
            batch_deadline_s=0.06,
            batch_size=batch,
            min_batch_size=batch // 4,
            queue=queue,
            metrics=engine.metrics,
            engine_label=engine_kind,
        )
        engine.controller = controller
        supervisor = StreamSupervisor(
            engine,
            checkpoint_dir=tmp_dir,
            checkpoint_every=2,
            chunk_size=batch,
            ingest_queue=queue,
        )
        return supervisor, engine

    def _arrivals(self, n=2400):
        workload = FirehoseWorkload(
            n_unlabeled=n, n_labeled=n // 8, seed=17
        )
        schedule = ArrivalSchedule(
            rate_hz=2000.0,  # tier-0 capacity is 1250/s: sustained overload
            shape="bursty",
            burst_factor=3.0,
            period_s=0.5,
            burst_duty=0.2,
            seed=5,
        )
        return list(
            itertools.islice(schedule.assign(workload.stream()), n)
        )

    def test_open_loop_queue_is_transparent_when_not_overloaded(self):
        # run() drains the queue every chunk_size tweets, so with
        # capacity > chunk the bound never binds: results must match a
        # queue-less supervised run exactly.
        tweets = _labeled(400)
        engine = MicroBatchEngine(n_partitions=2, batch_size=50)
        queue = BoundedIngestQueue(capacity=200, metrics=engine.metrics)
        with_queue = StreamSupervisor(
            engine, chunk_size=50, ingest_queue=queue
        ).run(tweets)
        without = StreamSupervisor(
            MicroBatchEngine(n_partitions=2, batch_size=50), chunk_size=50
        ).run(tweets)
        assert queue.n_shed == 0
        assert with_queue.result.metrics == without.result.metrics
        assert with_queue.health.n_processed == without.health.n_processed

    @pytest.mark.parametrize("engine_kind", ["microbatch", "sequential"])
    def test_closed_loop_burst_sheds_bounded_and_accounted(
        self, tmp_path, engine_kind
    ):
        supervisor, engine = self._build(tmp_path, engine_kind)
        queue = supervisor.ingest_queue
        run = supervisor.run_timed(self._arrivals(), SERVICE_MODEL)
        counters = queue.as_counters()
        # Bounded: unlabeled traffic never pushes past capacity plus
        # the (small) labeled soft-admit allowance.
        assert counters["max_depth"] <= queue.capacity + counters[
            "n_over_capacity"
        ]
        assert counters["n_shed"] > 0
        assert run.health.n_shed == counters["n_shed"]
        # Exact accounting: everything offered was processed or shed.
        assert counters["n_offered"] == counters["n_drained"] + counters[
            "n_shed"
        ]
        assert run.health.n_processed == counters["n_drained"]
        # Sustained 1.6x overload drove the controller to degrade.
        controller = supervisor.controller
        assert controller.n_deadline_misses + controller.n_resizes > 0

    def test_model_mode_is_deterministic(self, tmp_path):
        arrivals = self._arrivals(1200)

        def run(sub):
            supervisor, engine = self._build(tmp_path / sub, "microbatch")
            result = supervisor.run_timed(arrivals, SERVICE_MODEL)
            return (
                result.result.metrics,
                supervisor.ingest_queue.as_counters(),
                supervisor.controller.to_dict(),
                list(engine.alert_manager.alerts),
            )

        assert run("a") == run("b")

    @pytest.mark.parametrize("engine_kind", ["microbatch", "sequential"])
    def test_crash_resume_mid_overload_is_exact(self, tmp_path, engine_kind):
        arrivals = self._arrivals()

        baseline_sup, baseline_engine = self._build(
            tmp_path / "base", engine_kind
        )
        baseline = baseline_sup.run_timed(arrivals, SERVICE_MODEL)

        crashed, _ = self._build(tmp_path / "crash", engine_kind)
        with pytest.raises(_Crash):
            crashed.run_timed(
                _crashing_arrivals(arrivals, at=1600), SERVICE_MODEL
            )
        assert crashed.n_checkpoints >= 1
        # The checkpoint captured the overload machinery mid-episode,
        # pending backlog included.
        payload = json.loads(crashed.checkpoint_path.read_text())
        assert payload["supervisor_version"] == SUPERVISOR_CHECKPOINT_VERSION
        assert payload["overload"]["queue"]["entries"]
        assert payload["overload"]["controller"]["n_batches"] > 0

        resumed = StreamSupervisor.resume(
            tmp_path / "crash", checkpoint_every=2
        )
        rerun = resumed.run_timed(arrivals, SERVICE_MODEL)

        assert rerun.result.metrics == baseline.result.metrics
        assert (
            resumed.ingest_queue.as_counters()
            == baseline_sup.ingest_queue.as_counters()
        )
        assert (
            resumed.controller.to_dict()
            == baseline_sup.controller.to_dict()
        )
        assert (
            resumed.engine.pipeline.alert_manager.alerts
            == baseline_engine.pipeline.alert_manager.alerts
        )

    def test_resume_without_overload_section(self, tmp_path):
        # One version back (v4), no overload section: the section is
        # optional, not assumed.
        tweets = _labeled(300)
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path / "crash",
            checkpoint_every=1,
            chunk_size=50,
        )

        def crashing(stream, at):
            for index, tweet in enumerate(stream):
                if index >= at:
                    raise _Crash("died")
                yield tweet

        with pytest.raises(_Crash):
            supervisor.run(crashing(tweets, 150))
        path = supervisor.checkpoint_path
        payload = json.loads(path.read_text())
        payload["supervisor_version"] = 4
        payload.pop("overload", None)
        path.write_text(json.dumps(payload))

        baseline = StreamSupervisor(
            SequentialEngine(), chunk_size=50
        ).run(tweets)
        rerun = StreamSupervisor.resume(tmp_path / "crash").run(tweets)
        assert rerun.result.metrics == baseline.result.metrics

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_resume_refuses_versions_older_than_one_back(
        self, tmp_path, version
    ):
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=50,
        )
        supervisor.run(_labeled(100))
        for path in tmp_path.glob("checkpoint*.json"):
            payload = json.loads(path.read_text())
            payload["supervisor_version"] = version
            path.write_text(json.dumps(payload))
        with pytest.raises(
            SerializationError,
            match=f"unsupported supervisor checkpoint version {version}",
        ):
            StreamSupervisor.resume(tmp_path)


class TestDegradedAccuracy:
    def test_degraded_tiers_stay_within_five_f1_points(self, medium_stream):
        # The degraded extractors impute the skipped features, so the
        # vector stays 17-wide and the model keeps working; the price
        # of shedding POS/sentiment under overload must be small.
        def run(tier):
            pipeline = AggressionDetectionPipeline()
            pipeline.set_degrade_tier(tier)
            return pipeline.process_stream(medium_stream).metrics["f1"]

        full = run(DegradeTier.FULL)
        assert full > 0.75
        for tier in (DegradeTier.NO_POS, DegradeTier.TEXT_ONLY):
            degraded = run(tier)
            assert degraded >= full - 0.05, (
                f"{tier.name} f1 {degraded:.4f} vs FULL {full:.4f}"
            )


class TestNanThroughput:
    def test_untimed_result_reports_nan_not_zero(self):
        from repro.engine.microbatch import EngineResult

        result = EngineResult(
            n_processed=100,
            n_labeled=100,
            n_unlabeled=0,
            metrics={},
            batches=[],
            elapsed_seconds=0.0,
            n_alerts=0,
        )
        assert math.isnan(result.throughput)
        result.elapsed_seconds = 2.0
        assert result.throughput == pytest.approx(50.0)

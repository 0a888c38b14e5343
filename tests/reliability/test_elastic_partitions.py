"""Elastic partition actuator: ladder order, persistence, engine adoption.

The overload controller's third actuator resizes the engine's
partition count: degradation exhausts batch size, then degrade tier,
then halves partitions toward ``min_partitions``; recovery unwinds in
reverse — partitions are restored *first*, then the tier, then the
batch size. Straggler pressure (timed-out / worker-lost partitions)
counts as overload on its own and blocks comfort. The whole state
persists in checkpoint v4 and resumes exactly, including mid-recovery.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.core.features import DegradeTier
from repro.data.firehose import ArrivalSchedule, FirehoseWorkload
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.obs.metrics import MetricsRegistry
from repro.reliability import StreamSupervisor
from repro.reliability.supervisor import SUPERVISOR_CHECKPOINT_VERSION
from repro.reliability.deadletter import StreamHealth
from repro.reliability.overload import (
    BoundedIngestQueue,
    OverloadController,
)

#: Per-tweet service model by degrade tier (model-mode timed runs).
SERVICE_MODEL = {0: 0.0008, 1: 0.0005, 2: 0.0003}


def _labeled(n, seed=3):
    return AbusiveDatasetGenerator(
        n_tweets=n, seed=seed, n_days=1
    ).generate_list()


class _Crash(Exception):
    """Simulated hard driver death mid-stream."""


def _crashing_arrivals(arrivals, at):
    for index, pair in enumerate(arrivals):
        if index >= at:
            raise _Crash(f"driver died at arrival {index}")
        yield pair


def _elastic(**kwargs):
    kwargs.setdefault("batch_deadline_s", 1.0)
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("min_batch_size", 2)
    kwargs.setdefault("degrade_after", 1)
    kwargs.setdefault("recover_after", 1)
    kwargs.setdefault("n_partitions", 8)
    kwargs.setdefault("min_partitions", 2)
    return OverloadController(**kwargs)


class TestActuatorLadder:
    def test_rejects_bad_partition_bounds(self):
        with pytest.raises(ValueError):
            OverloadController(
                batch_deadline_s=1.0, batch_size=8, min_partitions=2
            )
        with pytest.raises(ValueError):
            _elastic(n_partitions=4, min_partitions=8)
        with pytest.raises(ValueError):
            _elastic(n_partitions=4, max_partitions=2)
        with pytest.raises(ValueError):
            _elastic(n_partitions=0, min_partitions=0)

    def test_degrade_exhausts_batch_and_tier_before_partitions(self):
        controller = _elastic()
        ladder = []
        for _ in range(7):
            controller.observe_batch(2.0, queue_fraction=0.0)
            ladder.append(
                (
                    controller.batch_size,
                    int(controller.tier),
                    controller.n_partitions,
                )
            )
        assert ladder == [
            (4, 0, 8),  # batch shrinks first
            (2, 0, 8),
            (2, 1, 8),  # then the feature tier degrades
            (2, 2, 8),
            (2, 2, 4),  # partitions are the last rung
            (2, 2, 2),
            (2, 2, 2),  # floor: holds
        ]
        assert controller.n_partition_resizes == 2

    def test_recovery_restores_partitions_first(self):
        controller = _elastic()
        for _ in range(6):  # drive to the floor
            controller.observe_batch(2.0, queue_fraction=0.0)
        ladder = []
        for _ in range(8):
            controller.observe_batch(0.1, queue_fraction=0.0)
            ladder.append(
                (
                    controller.batch_size,
                    int(controller.tier),
                    controller.n_partitions,
                )
            )
        assert ladder == [
            (2, 2, 4),  # partitions come back first...
            (2, 2, 8),
            (2, 1, 8),  # ...then the tier...
            (2, 0, 8),
            (3, 0, 8),  # ...then batch size grows toward max
            (4, 0, 8),
            (6, 0, 8),
            (8, 0, 8),
        ]
        assert controller.n_partition_resizes == 4

    def test_without_partitions_ladder_is_unchanged(self):
        # n_partitions unset: the controller behaves exactly as before
        # the elastic actuator existed (no partition rung either way).
        controller = OverloadController(
            batch_deadline_s=1.0,
            batch_size=8,
            min_batch_size=2,
            degrade_after=1,
            recover_after=1,
        )
        for _ in range(6):
            controller.observe_batch(2.0, queue_fraction=0.0)
        assert controller.n_partitions is None
        assert controller.tier == DegradeTier.TEXT_ONLY
        controller.observe_batch(0.1, queue_fraction=0.0)
        assert controller.tier == DegradeTier.NO_POS  # tier first, as ever


class TestStragglerPressure:
    def test_stragglers_alone_are_pressure(self):
        controller = _elastic()
        controller.observe_batch(0.1, queue_fraction=0.0, n_stragglers=1)
        assert controller.batch_size == 4  # fast batch, yet degraded
        assert controller.n_deadline_misses == 0
        assert controller.n_stragglers_seen == 1

    def test_stragglers_block_comfort(self):
        controller = _elastic()
        for _ in range(2):
            controller.observe_batch(2.0, queue_fraction=0.0)
        degraded_size = controller.batch_size
        # Fast batches that still lose partitions must never recover.
        for _ in range(5):
            controller.observe_batch(0.1, queue_fraction=0.0, n_stragglers=2)
        assert controller.batch_size <= degraded_size
        assert controller.n_stragglers_seen == 10


class TestSerialization:
    def test_round_trip_preserves_elastic_state(self):
        controller = _elastic()
        for _ in range(5):
            controller.observe_batch(2.0, queue_fraction=0.0)
        controller.observe_batch(0.1, queue_fraction=0.0)  # mid-recovery
        payload = json.loads(json.dumps(controller.to_dict()))
        assert payload["n_partitions"] == controller.n_partitions
        restored = OverloadController.from_dict(payload)
        assert restored.to_dict() == controller.to_dict()
        # Continued observations make identical decisions.
        for seconds, stragglers in ((0.1, 0), (0.1, 1), (2.0, 0), (0.1, 0)):
            controller.observe_batch(
                seconds, queue_fraction=0.0, n_stragglers=stragglers
            )
            restored.observe_batch(
                seconds, queue_fraction=0.0, n_stragglers=stragglers
            )
        assert restored.to_dict() == controller.to_dict()

    def test_v3_payload_without_partition_keys_still_loads(self):
        controller = OverloadController(
            batch_deadline_s=1.0, batch_size=8, min_batch_size=2
        )
        payload = controller.to_dict()
        for key in (
            "n_partitions",
            "min_partitions",
            "max_partitions",
            "n_partition_resizes",
            "n_stragglers_seen",
        ):
            payload.pop(key)
        restored = OverloadController.from_dict(payload)
        assert restored.n_partitions is None
        assert restored.n_partition_resizes == 0
        assert restored.batch_size == controller.batch_size

    def test_publishes_partition_gauge(self):
        registry = MetricsRegistry()
        controller = _elastic(metrics=registry)
        assert registry.gauge_value("controller_n_partitions") == 8
        for _ in range(5):
            controller.observe_batch(2.0, queue_fraction=0.0)
        assert registry.gauge_value("controller_n_partitions") == 4


class TestEngineAdoption:
    def test_engine_adopts_resized_partition_count(self):
        engine = MicroBatchEngine(n_partitions=4, batch_size=8)
        controller = OverloadController(
            batch_deadline_s=1e-9,  # every batch misses
            batch_size=8,
            min_batch_size=2,
            degrade_after=1,
            metrics=engine.metrics,
            n_partitions=4,
            min_partitions=2,
        )
        engine.controller = controller
        tweets = _labeled(48)
        for start in range(0, 48, 8):
            engine.process_batch(tweets[start : start + 8])
        # Ladder: batch 8->4->2, tier 0->1->2, partitions 4->2.
        assert controller.n_partitions == 2
        assert engine.n_partitions == 2
        assert engine.batch_size == 2

    def test_engine_starts_from_controller_partitions(self):
        controller = OverloadController(
            batch_deadline_s=1.0,
            batch_size=8,
            n_partitions=2,
            min_partitions=1,
            max_partitions=8,
        )
        engine = MicroBatchEngine(
            n_partitions=8, batch_size=8, controller=controller
        )
        assert engine.n_partitions == 2


class TestStreamHealthCounters:
    def test_from_registry_reads_partition_counters(self):
        registry = MetricsRegistry()
        registry.counter(
            "partition_timeouts_total", engine="microbatch"
        ).inc(3)
        registry.counter(
            "speculative_wins_total", engine="microbatch"
        ).inc(2)
        health = StreamHealth.from_registry(registry)
        assert health.n_partition_timeouts == 3
        assert health.n_speculative_wins == 2
        as_dict = health.as_dict()
        assert as_dict["n_partition_timeouts"] == 3
        assert as_dict["n_speculative_wins"] == 2


class TestCrashResumeElastic:
    @pytest.mark.chaos
    def test_crash_resume_mid_elastic_recovery_is_exact(self, tmp_path):
        # Mirrors the v3 crash-resume equivalence test, with the
        # elastic actuator armed: the v4 checkpoint must capture the
        # resized partition count mid-episode and the resumed run must
        # match the uncrashed baseline bit-for-bit.
        def build(tmp_dir):
            engine = MicroBatchEngine(n_partitions=4, batch_size=100)
            queue = BoundedIngestQueue(
                capacity=300, metrics=engine.metrics
            )
            controller = OverloadController(
                batch_deadline_s=0.06,
                batch_size=100,
                min_batch_size=25,
                queue=queue,
                metrics=engine.metrics,
                n_partitions=4,
                min_partitions=1,
                max_partitions=4,
            )
            engine.controller = controller
            supervisor = StreamSupervisor(
                engine,
                checkpoint_dir=tmp_dir,
                checkpoint_every=2,
                chunk_size=100,
                ingest_queue=queue,
            )
            return supervisor, engine

        workload = FirehoseWorkload(n_unlabeled=2400, n_labeled=300, seed=17)
        schedule = ArrivalSchedule(
            rate_hz=2000.0,
            shape="bursty",
            burst_factor=3.0,
            period_s=0.5,
            burst_duty=0.2,
            seed=5,
        )
        arrivals = list(
            itertools.islice(schedule.assign(workload.stream()), 2400)
        )

        baseline_sup, baseline_engine = build(tmp_path / "base")
        baseline = baseline_sup.run_timed(arrivals, SERVICE_MODEL)

        crashed, _ = build(tmp_path / "crash")
        with pytest.raises(_Crash):
            crashed.run_timed(
                _crashing_arrivals(arrivals, at=1600), SERVICE_MODEL
            )
        assert crashed.n_checkpoints >= 1
        payload = json.loads(crashed.checkpoint_path.read_text())
        assert payload["supervisor_version"] == SUPERVISOR_CHECKPOINT_VERSION
        assert payload["overload"]["controller"]["max_partitions"] == 4

        resumed = StreamSupervisor.resume(
            tmp_path / "crash", checkpoint_every=2
        )
        rerun = resumed.run_timed(arrivals, SERVICE_MODEL)

        assert rerun.result.metrics == baseline.result.metrics
        assert (
            resumed.controller.to_dict() == baseline_sup.controller.to_dict()
        )
        assert (
            resumed.ingest_queue.as_counters()
            == baseline_sup.ingest_queue.as_counters()
        )
        assert resumed.engine.n_partitions == baseline_engine.n_partitions
        assert (
            resumed.engine.alert_manager.alerts
            == baseline_engine.alert_manager.alerts
        )

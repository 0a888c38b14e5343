"""Stream supervision: quarantine, checkpoint-resume, chaos equivalence."""

import json

import pytest

from repro.core.checkpoint import atomic_write_json
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import SerialRunner
from repro.engine.sequential import SequentialEngine
from repro.reliability import (
    CircuitOpenError,
    DeadLetterQueue,
    FaultInjectingRunner,
    FaultInjector,
    RetryPolicy,
    StreamSupervisor,
    corrupting_stream,
    corruption_mask,
)


def _tweets(n=600, seed=3):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


class _Crash(Exception):
    """Simulated hard driver death mid-stream."""


def _crashing(tweets, at):
    for index, tweet in enumerate(tweets):
        if index >= at:
            raise _Crash(f"driver died at tweet {index}")
        yield tweet


def _no_sleep_policy(**kwargs):
    kwargs.setdefault("base_delay_s", 0.0)
    return RetryPolicy(sleep=lambda _s: None, **kwargs)


class TestPipelineQuarantine:
    def test_poison_tweets_are_skipped_and_counted(self):
        queue = DeadLetterQueue()
        pipeline = AggressionDetectionPipeline(dead_letters=queue)
        tweets = list(corrupting_stream(_tweets(200), rate=0.1, seed=7))
        result = pipeline.process_stream(tweets)
        assert result.n_quarantined == queue.n_total > 0
        assert result.n_processed == len(tweets) - result.n_quarantined
        assert set(queue.by_stage()) == {"validate"}

    def test_without_queue_poison_raises(self):
        pipeline = AggressionDetectionPipeline()
        poisoned = list(corrupting_stream(_tweets(100), rate=1.0, seed=7))
        with pytest.raises(Exception):
            pipeline.process_stream(poisoned)

    def test_circuit_breaker_trips_on_poison_storm(self):
        pipeline = AggressionDetectionPipeline(max_poison_rate=0.05)
        storm = corrupting_stream(_tweets(500), rate=0.5, seed=7)
        with pytest.raises(CircuitOpenError):
            pipeline.process_stream(storm)


class TestAtomicWrite:
    def test_writes_json_and_removes_tmp(self, tmp_path):
        target = tmp_path / "state.json"
        size = atomic_write_json(target, {"a": 1})
        assert size == target.stat().st_size
        assert json.loads(target.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_previous_file_intact(self, tmp_path):
        target = tmp_path / "state.json"
        atomic_write_json(target, {"good": True})
        with pytest.raises(TypeError):
            atomic_write_json(target, {"bad": object()})
        assert json.loads(target.read_text()) == {"good": True}


class TestCheckpointResume:
    @pytest.mark.parametrize("engine_kind", ["microbatch", "sequential"])
    def test_crash_and_resume_equals_uninterrupted(self, tmp_path, engine_kind):
        tweets = _tweets()

        def build():
            if engine_kind == "microbatch":
                return MicroBatchEngine(n_partitions=4, batch_size=50)
            return SequentialEngine()

        baseline_engine = build()
        supervisor = StreamSupervisor(
            baseline_engine,
            checkpoint_dir=tmp_path / "base",
            checkpoint_every=2,
            chunk_size=50,
        )
        baseline = supervisor.run(tweets)

        # Process 3+ chunks, checkpoint, then die mid-stream.
        crashed = StreamSupervisor(
            build(),
            checkpoint_dir=tmp_path / "crash",
            checkpoint_every=2,
            chunk_size=50,
        )
        with pytest.raises(_Crash):
            crashed.run(_crashing(tweets, at=330))
        assert crashed.n_checkpoints >= 3

        resumed = StreamSupervisor.resume(
            tmp_path / "crash", checkpoint_every=2
        )
        rerun = resumed.run(tweets)
        assert rerun.result.metrics == baseline.result.metrics
        assert rerun.health.n_processed == baseline.health.n_processed
        assert (
            resumed.engine.pipeline.alert_manager.alerts
            == baseline_engine.pipeline.alert_manager.alerts
        )
        if engine_kind == "microbatch":
            assert len(resumed.engine.batches) == len(baseline_engine.batches)

    def test_resume_of_finished_run_is_noop(self, tmp_path):
        tweets = _tweets(200)
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            chunk_size=50,
        )
        first = supervisor.run(tweets)
        resumed = StreamSupervisor.resume(tmp_path)
        second = resumed.run(tweets)
        assert second.result.metrics == first.result.metrics
        assert second.health.n_processed == first.health.n_processed

    def test_resume_rejects_unknown_version(self, tmp_path):
        atomic_write_json(
            tmp_path / "checkpoint.json", {"supervisor_version": 999}
        )
        with pytest.raises(Exception, match="version"):
            StreamSupervisor.resume(tmp_path)


class TestSupervisorQuarantine:
    def test_validation_happens_before_batching(self):
        # Corrupt tweets must not occupy batch slots: the supervised
        # run over the dirty stream sees the same batches as a plain
        # run over the clean subset.
        tweets = _tweets(400)
        mask = corruption_mask(len(tweets), rate=0.1, seed=7)
        clean = [t for t, bad in zip(tweets, mask) if not bad]
        dirty = list(corrupting_stream(tweets, rate=0.1, seed=7))

        reference = MicroBatchEngine(n_partitions=3, batch_size=50)
        ref_result = reference.run(clean)

        engine = MicroBatchEngine(n_partitions=3, batch_size=50)
        supervisor = StreamSupervisor(engine, chunk_size=50)
        run = supervisor.run(dirty)

        assert run.result.metrics == ref_result.metrics
        assert run.health.n_quarantined == sum(mask)
        assert run.health.n_consumed == len(tweets)
        assert engine.alert_manager.alerts == reference.alert_manager.alerts

    def test_breaker_aborts_poison_storm(self):
        supervisor = StreamSupervisor(
            SequentialEngine(), chunk_size=50, max_poison_rate=0.05
        )
        storm = corrupting_stream(_tweets(500), rate=0.5, seed=7)
        with pytest.raises(CircuitOpenError):
            supervisor.run(storm)
        assert supervisor.health().breaker_open


@pytest.mark.chaos
class TestChaosEquivalence:
    """ISSUE acceptance: seeded faults leave metrics bit-identical."""

    def test_transient_failures_plus_corruption_match_clean_run(self):
        tweets = _tweets(600)
        rate = 0.01
        mask = corruption_mask(len(tweets), rate=rate, seed=7)
        clean = [t for t, bad in zip(tweets, mask) if not bad]
        dirty = list(corrupting_stream(tweets, rate=rate, seed=7))

        reference = MicroBatchEngine(n_partitions=4, batch_size=50)
        ref_result = reference.run(clean)

        # Two transient partition failures at different points in the
        # stream; each recovers on retry.
        injector = FaultInjector(schedule={1: [2], 5: [0]})
        runner = FaultInjectingRunner(SerialRunner(), injector)
        engine = MicroBatchEngine(
            n_partitions=4,
            batch_size=50,
            runner=runner,
            retry_policy=_no_sleep_policy(max_retries=3),
        )
        supervisor = StreamSupervisor(engine, chunk_size=50)
        run = supervisor.run(dirty)

        assert injector.n_injected == 2
        assert run.health.n_retries == 2
        assert run.health.n_quarantined == sum(mask)
        assert run.result.metrics == ref_result.metrics
        assert engine.alert_manager.alerts == reference.alert_manager.alerts

    def test_kill_resume_under_faults_matches_uninterrupted(self, tmp_path):
        tweets = _tweets(600)
        dirty = list(corrupting_stream(tweets, rate=0.01, seed=7))

        def build(schedule):
            injector = FaultInjector(schedule=schedule)
            return MicroBatchEngine(
                n_partitions=4,
                batch_size=50,
                runner=FaultInjectingRunner(SerialRunner(), injector),
                retry_policy=_no_sleep_policy(max_retries=3),
            )

        baseline_engine = build({1: [2]})
        baseline = StreamSupervisor(baseline_engine, chunk_size=50).run(dirty)

        crashed = StreamSupervisor(
            build({1: [2]}),
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
            chunk_size=50,
        )
        with pytest.raises(_Crash):
            crashed.run(_crashing(dirty, at=320))

        resumed = StreamSupervisor.resume(
            tmp_path,
            checkpoint_every=2,
            runner=FaultInjectingRunner(SerialRunner(), FaultInjector()),
            retry_policy=_no_sleep_policy(max_retries=3),
        )
        rerun = resumed.run(dirty)
        assert rerun.result.metrics == baseline.result.metrics
        assert (
            resumed.engine.alert_manager.alerts
            == baseline_engine.alert_manager.alerts
        )


class TestShmBroadcastCrashResume:
    """Shared-memory broadcast segments survive crash-resume cleanly.

    A driver crash mid-stream leaves the last broadcast segment live;
    closing the dead engine must unlink it, and the resumed supervisor
    must recreate segments from the restored state and still match the
    uninterrupted run — proof the zero-copy path round-trips through a
    checkpoint.
    """

    def test_segments_recreated_cleanly_after_resume(self, tmp_path):
        from repro.engine import runners as broadcast_runners

        def shm_names():
            import os

            try:
                return {
                    f
                    for f in os.listdir("/dev/shm")
                    if f.startswith("psm_")
                }
            except FileNotFoundError:
                return set()

        tweets = _tweets(400)
        before = shm_names()
        # The live-segment registry is process-global: engines from
        # earlier tests that rely on the atexit sweep may still hold
        # segments, so every check below is a delta against this.
        stale = set(broadcast_runners.live_segment_names())

        def new_live():
            return set(broadcast_runners.live_segment_names()) - stale

        def build():
            return MicroBatchEngine(
                n_partitions=2,
                batch_size=50,
                runner="processes",
                n_workers=2,
            )

        baseline_engine = build()
        baseline = StreamSupervisor(
            baseline_engine,
            checkpoint_dir=tmp_path / "base",
            checkpoint_every=2,
            chunk_size=100,
        ).run(tweets)
        baseline_engine.close()
        assert new_live() == set()

        crashed = StreamSupervisor(
            build(),
            checkpoint_dir=tmp_path / "crash",
            checkpoint_every=1,
            chunk_size=100,
        )
        with pytest.raises(_Crash):
            crashed.run(_crashing(tweets, at=250))
        crashed.engine.close()
        # The crash left a live segment; close() must have unlinked it.
        assert new_live() == set()

        resumed = StreamSupervisor.resume(
            tmp_path / "crash",
            checkpoint_every=1,
            runner="processes",
            n_workers=2,
        )
        rerun = resumed.run(tweets)
        resumed.engine.close()
        assert rerun.result.metrics == baseline.result.metrics
        assert rerun.health.n_processed == baseline.health.n_processed
        assert new_live() == set()
        assert shm_names() - before == set()

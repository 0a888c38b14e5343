"""Deadline-aware runners: outcome classes, speculation, pool recovery.

``Runner.run_with_deadline`` turns "one bad partition poisons the
batch" into per-partition fault domains: every task gets a
:class:`TaskOutcome` (``ok`` / ``failed`` / ``timed_out`` /
``worker_lost``), stragglers past ``speculate_after`` get a duplicate
attempt (first finisher wins), and a dead worker breaks only the
*pool* — completed siblings keep their results and only the unresolved
partitions are re-run against a rebuilt pool. These tests pin that
contract on both runner kinds, plus the shared-memory hygiene
guarantee: a worker killed mid-batch never strands a broadcast
segment.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.config import PipelineConfig
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.replay import model_state_digest
from repro.engine.runners import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_TIMED_OUT,
    OUTCOME_WORKER_LOST,
    PartitionError,
    ProcessPoolRunner,
    Runner,
    RunReport,
    SerialRunner,
    TaskOutcome,
    TransientWorkerError,
    live_segment_names,
)
from repro.reliability.faults import FaultInjectingRunner, FaultInjector
from repro.reliability.supervisor import RetryPolicy


def _shm_names():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm hosts
        return set()


@pytest.fixture(autouse=True)
def _stale_segments():
    # Delta-assert against the process-global segment registry (other
    # suites may legitimately defer cleanup to the atexit sweep).
    yield set(live_segment_names())


def _new_live(stale):
    return set(live_segment_names()) - stale


class _Return:
    """Picklable task returning a constant."""

    def __init__(self, value):
        self.value = value

    def __call__(self):
        return self.value


class _Sleep:
    """Picklable task that sleeps, then returns."""

    def __init__(self, seconds, value):
        self.seconds = seconds
        self.value = value

    def __call__(self):
        time.sleep(self.seconds)
        return self.value


class _Fail:
    """Picklable task raising a transient or fatal error."""

    def __init__(self, transient=True):
        self.transient = transient

    def __call__(self):
        if self.transient:
            raise TransientWorkerError("injected transient")
        raise ValueError("injected fatal")


class _Kill:
    """Picklable task that kills its worker process, every time."""

    def __call__(self):
        os._exit(17)


class _KillOnce:
    """Kills the worker on the first execution only (marker file)."""

    def __init__(self, marker):
        self.marker = marker

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            os._exit(17)
        return "revived"


class _SlowOnce:
    """Slow on the first execution only — the speculation-win shape.

    The original attempt drops the marker and grinds; a speculative
    duplicate sees the marker and returns immediately, winning the
    race.
    """

    def __init__(self, marker, slow_s, value):
        self.marker = marker
        self.slow_s = slow_s
        self.value = value

    def __call__(self):
        if not os.path.exists(self.marker):
            with open(self.marker, "w"):
                pass
            time.sleep(self.slow_s)
        return self.value


class TestSerialOutcomes:
    def test_all_ok_keeps_order_and_results(self):
        report = SerialRunner().run_with_deadline(
            [_Return(3), _Return(1), _Return(2)]
        )
        assert report.ok
        assert [o.status for o in report.outcomes] == [OUTCOME_OK] * 3
        assert [o.partition_index for o in report.outcomes] == [0, 1, 2]
        assert report.results() == [3, 1, 2]
        assert report.n_speculative_launched == 0
        assert report.n_pool_rebuilds == 0

    def test_failure_is_isolated_and_classified(self):
        report = SerialRunner().run_with_deadline(
            [_Return("a"), _Fail(transient=True), _Fail(transient=False)]
        )
        assert not report.ok
        ok, transient, fatal = report.outcomes
        assert ok.ok and ok.result == "a"
        assert transient.status == OUTCOME_FAILED and transient.retryable
        assert fatal.status == OUTCOME_FAILED and not fatal.retryable
        assert isinstance(transient.error, PartitionError)
        assert transient.error.partition_index == 1
        with pytest.raises(PartitionError):
            report.results()

    def test_rejects_bad_deadline_arguments(self):
        runner = SerialRunner()
        with pytest.raises(ValueError):
            runner.run_with_deadline([_Return(1)], deadline_s=0.0)
        with pytest.raises(ValueError):
            runner.run_with_deadline([_Return(1)], speculate_after=0.5)
        with pytest.raises(ValueError):
            runner.run_with_deadline(
                [_Return(1)], deadline_s=1.0, speculate_after=1.5
            )


class TestProcessDeadline:
    def test_all_ok_under_generous_deadline(self):
        with ProcessPoolRunner(n_processes=2) as runner:
            report = runner.run_with_deadline(
                [_Return(10), _Return(20), _Return(30)], deadline_s=30.0
            )
            assert report.ok
            assert report.results() == [10, 20, 30]
            assert all(o.duration_s >= 0.0 for o in report.outcomes)

    def test_timeout_abandons_hung_worker_and_counts_rebuild(self):
        with ProcessPoolRunner(n_processes=2) as runner:
            report = runner.run_with_deadline(
                [_Return("fast"), _Sleep(10.0, "slow")], deadline_s=0.4
            )
            fast, slow = report.outcomes
            assert fast.ok
            assert slow.status == OUTCOME_TIMED_OUT and slow.retryable
            # The straggler's worker was still grinding: the pool was
            # abandoned (workers terminated) rather than handed over
            # busy, and that counts as a rebuild.
            assert report.n_pool_rebuilds == 1
            assert runner.n_pool_rebuilds == 1
            # The next run builds a fresh pool transparently.
            assert runner.run([_Return(1)]) == [1]

    def test_worker_kill_rebuilds_pool_and_reruns_partition(self, tmp_path):
        marker = str(tmp_path / "killed-once")
        with ProcessPoolRunner(n_processes=2) as runner:
            report = runner.run_with_deadline(
                [_KillOnce(marker), _Return("ok")], deadline_s=30.0
            )
            assert report.ok
            assert report.results() == ["revived", "ok"]
            assert report.n_pool_rebuilds >= 1
            assert runner.n_pool_rebuilds >= 1

    def test_run_rebuilds_pool_after_worker_loss(self, tmp_path):
        # run() is run_with_deadline(tasks).results(): a killed worker
        # is rebuilt in place and only its partition re-runs, with or
        # without a deadline.
        marker = str(tmp_path / "killed-once")
        with ProcessPoolRunner(n_processes=2) as runner:
            results = runner.run([_KillOnce(marker), _Return("ok")])
            assert results == ["revived", "ok"]
            assert runner.n_pool_rebuilds == 1

    def test_rebuild_budget_exhaustion_reports_worker_lost(self):
        with ProcessPoolRunner(
            n_processes=2, max_rebuilds_per_run=0
        ) as runner:
            report = runner.run_with_deadline([_Kill()], deadline_s=30.0)
            (outcome,) = report.outcomes
            assert outcome.status == OUTCOME_WORKER_LOST
            assert outcome.retryable
            assert outcome.error is not None and outcome.error.transient
            assert "budget" in outcome.error.message
            assert report.n_pool_rebuilds == 0

    def test_speculative_duplicate_wins_for_straggler(self, tmp_path):
        marker = str(tmp_path / "slow-once")
        with ProcessPoolRunner(n_processes=2) as runner:
            report = runner.run_with_deadline(
                [_SlowOnce(marker, 1.2, "spec"), _Return("fast")],
                deadline_s=1.0,
                speculate_after=0.1,
            )
            assert report.ok
            assert report.results() == ["spec", "fast"]
            assert report.n_speculative_launched >= 1
            assert report.n_speculative_wins >= 1
            assert report.outcomes[0].speculative

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(evict_timeout_s=0.0)
        with pytest.raises(ValueError):
            ProcessPoolRunner(max_rebuilds_per_run=-1)

    def test_evict_timeout_swallows_busy_workers(self):
        # Satellite fix: a busy (or hung) worker must not abort — or
        # indefinitely block — broadcast eviction on the rest of the
        # pool. Both workers are occupied, the eviction tasks queue
        # behind them, and the per-worker timeout bounds the wait.
        with ProcessPoolRunner(n_processes=2, evict_timeout_s=0.05) as runner:
            pool = runner._ensure_pool()
            blockers = [pool.submit(time.sleep, 0.5) for _ in range(2)]
            started = time.perf_counter()
            runner.evict_broadcast("some-key")  # must not raise
            assert time.perf_counter() - started < 0.45
            for blocker in blockers:
                blocker.result(timeout=5.0)


class _InlineRunner(Runner):
    """A backend implementing only ``run_with_deadline``."""

    def run_with_deadline(self, tasks, deadline_s=None, speculate_after=None):
        return RunReport(
            outcomes=[
                TaskOutcome(index, OUTCOME_OK, result=task())
                for index, task in enumerate(tasks)
            ]
        )


class TestBackendContract:
    def test_run_is_derived_from_run_with_deadline(self):
        assert _InlineRunner().run([_Return(3), _Return(1)]) == [3, 1]

    def test_engine_runs_on_a_minimal_backend(self):
        tweets = AbusiveDatasetGenerator(n_tweets=300, seed=21).generate_list()

        def digest(runner):
            engine = MicroBatchEngine(
                PipelineConfig(n_classes=2),
                n_partitions=2,
                batch_size=100,
                runner=runner,
            )
            result = engine.run(tweets)
            return model_state_digest(engine.model), result.metrics

        assert digest(_InlineRunner()) == digest(SerialRunner())


class TestShmHygieneOnWorkerLoss:
    def test_worker_kill_mid_batch_strands_no_segments(
        self, tmp_path, _stale_segments
    ):
        # A worker killed while holding (a view of) the broadcast must
        # not strand the segment: segments are driver-owned, survive
        # the pool rebuild by construction (workers re-attach the same
        # state), and drain to zero at engine close.
        tweets = AbusiveDatasetGenerator(n_tweets=200, seed=21).generate_list()
        before = _shm_names()
        injector = FaultInjector(
            schedule={0: (0,)}, kind="worker_kill", transient=True
        )
        base = ProcessPoolRunner(n_processes=2, max_rebuilds_per_run=1)
        runner = FaultInjectingRunner(base, injector, owns_inner=True)
        policy = RetryPolicy(
            max_retries=3, base_delay_s=0.0, jitter=0.0,
            sleep=lambda _s: None,
        )
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=200,
            runner=runner,
            retry_policy=policy,
            partition_deadline_s=30.0,
        )
        try:
            result = engine.run(tweets)
        finally:
            engine.close()
            runner.close()
        assert result.n_processed == 200
        assert injector.n_injected >= 1
        assert engine.metrics.total("pool_rebuilds_total") >= 1
        assert _new_live(_stale_segments) == set()
        assert _shm_names() - before == set()

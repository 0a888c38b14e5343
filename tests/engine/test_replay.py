"""Tests for stream replay and latency measurement."""

from __future__ import annotations

import math

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.firehose import ArrivalSchedule
from repro.engine.replay import StreamReplayer, replay_closed_loop
from repro.reliability.overload import BoundedIngestQueue, OverloadController


def _noop(tweet):
    return None


class StepClock:
    """Deterministic fake clock: advances a fixed step per reading, so
    each (start, stop) pair around a processed tweet measures exactly
    ``step_s`` of service time on any host."""

    def __init__(self, step_s: float) -> None:
        self.step_s = step_s
        self.now_s = 0.0

    def __call__(self) -> float:
        self.now_s += self.step_s
        return self.now_s


class TestQueueingModel:
    def test_invalid_rate(self, small_stream):
        replayer = StreamReplayer(_noop, service_time_s=0.001)
        with pytest.raises(ValueError):
            replayer.replay(small_stream[:10], arrival_rate=0.0)

    def test_empty_stream(self):
        replayer = StreamReplayer(_noop, service_time_s=0.001)
        with pytest.raises(ValueError):
            replayer.replay([], arrival_rate=100.0)

    def test_underload_latency_equals_service_time(self, small_stream):
        # Offered 100/s, capacity 1000/s: no queueing, latency = 1ms.
        replayer = StreamReplayer(_noop, service_time_s=0.001)
        report = replayer.replay(small_stream[:200], arrival_rate=100.0)
        assert report.is_real_time
        assert report.mean_latency_s == pytest.approx(0.001)
        assert report.max_queue_depth <= 2

    def test_overload_latency_grows(self, small_stream):
        # Offered 2000/s, capacity 1000/s: the queue diverges.
        replayer = StreamReplayer(_noop, service_time_s=0.001)
        report = replayer.replay(small_stream[:1000], arrival_rate=2000.0)
        assert not report.is_real_time
        assert report.utilization == pytest.approx(2.0)
        # Latency of the last tweets ~ n * (1/1000 - 1/2000).
        assert report.max_latency_s > 0.4
        assert report.p99_latency_s > report.p50_latency_s
        # Tweet j (odd) arrives at j/2000 s; tweets (j-1)/2 .. j are
        # still in the system then, so the last one sees (999+3)/2.
        assert report.max_queue_depth == 501

    def test_latency_monotone_in_rate(self, small_stream):
        replayer = StreamReplayer(_noop, service_time_s=0.002)
        slow = replayer.replay(small_stream[:300], arrival_rate=100.0)
        fast = replayer.replay(small_stream[:300], arrival_rate=450.0)
        assert fast.p95_latency_s >= slow.p95_latency_s


class TestRealPipelineReplay:
    def test_measured_service_rate_positive(self, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        replayer = StreamReplayer(pipeline.process)  # measured timing
        report = replayer.replay(small_stream[:300], arrival_rate=50.0)
        assert report.service_rate > 100  # this pipeline does >100 tweets/s
        assert report.n_tweets == 300


class TestStepClock:

    def test_measured_service_equals_step(self, small_stream):
        # A (start, stop) pair around each tweet yields exactly step_s.
        replayer = StreamReplayer(_noop, clock=StepClock(step_s=0.002))
        report = replayer.replay(small_stream[:50], arrival_rate=10.0)
        assert report.service_rate == pytest.approx(500.0)


class TestUnmeasuredReports:
    def test_zero_service_time_gives_nan_not_zero(self, small_stream):
        # An un-timed replay must not claim to be real-time (or not):
        # utilization is nan, so is_real_time is False, never a lie.
        replayer = StreamReplayer(_noop, service_time_s=0.0)
        report = replayer.replay(small_stream[:20], arrival_rate=100.0)
        assert math.isnan(report.service_rate)
        assert math.isnan(report.utilization)
        assert not report.is_real_time


class TestDeterministicReplay:
    def test_step_clock_replay_is_reproducible(self, small_stream):
        def run():
            replayer = StreamReplayer(_noop, clock=StepClock(step_s=0.001))
            return replayer.replay(small_stream[:200], arrival_rate=500.0)

        assert run() == run()


class TestClosedLoopReplay:
    def _unlabeled(self, n):
        from repro.data.loader import strip_labels
        from repro.data.synthetic import AbusiveDatasetGenerator

        generator = AbusiveDatasetGenerator(n_tweets=n, seed=11)
        return list(strip_labels(generator.generate()))

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            replay_closed_loop([], BoundedIngestQueue(), _noop, batch_size=0)

    def test_overload_sheds_but_stays_bounded_and_accounted(self):
        tweets = self._unlabeled(3000)
        schedule = ArrivalSchedule(rate_hz=2000.0, shape="uniform")
        queue = BoundedIngestQueue(capacity=200)
        report = replay_closed_loop(
            schedule.assign(tweets),
            queue,
            lambda batch: None,
            batch_size=100,
            service_time_s=0.001,  # server capacity 1000/s: 2x overload
        )
        assert report.n_offered == 3000
        assert report.n_offered == report.n_processed + report.n_shed
        assert report.n_shed > 0
        assert report.max_queue_depth <= 200
        assert 0.0 < report.shed_fraction < 1.0
        assert report.n_processed / report.makespan_s == pytest.approx(
            1000.0, rel=0.1
        )
        assert report.as_dict()["queue_counters"]["n_shed"] == report.n_shed

    def test_controller_degrades_under_burst_and_recovers(self):
        # Mean 1000/s against a 1250/s full-tier server, with 3x bursts:
        # each burst drives the tiers down, each quiet phase restores
        # them — ending back at FULL.
        tweets = self._unlabeled(6000)
        schedule = ArrivalSchedule(
            rate_hz=1000.0,
            shape="bursty",
            burst_factor=3.0,
            period_s=2.0,
            burst_duty=0.3,
            seed=5,
        )
        queue = BoundedIngestQueue(capacity=600)
        controller = OverloadController(
            batch_deadline_s=0.12,
            batch_size=200,
            min_batch_size=100,
            queue=queue,
        )
        report = replay_closed_loop(
            schedule.assign(tweets),
            queue,
            lambda batch: None,
            controller=controller,
            service_time_s={0: 0.0008, 1: 0.0005, 2: 0.0003},
        )
        assert report.n_offered == report.n_processed + report.n_shed
        assert controller.n_degrades > 0
        assert controller.n_recovers > 0
        assert report.max_tier_reached == 2
        assert report.final_tier == 0  # recovered by the end
        assert report.n_deadline_misses > 0

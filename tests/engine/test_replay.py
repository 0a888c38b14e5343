"""Tests for the simulated single server, ``serve_backlog``.

Each case drives the server with a small ``serve`` function: a FIFO of
single tweets for detection latency, or batches under a per-tier
service model for closed-loop overload.
"""

from __future__ import annotations

import time

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.firehose import ArrivalSchedule
from repro.reliability.overload import (
    BoundedIngestQueue,
    OverloadController,
    serve_backlog,
)
from repro.streamml.stats import percentile


def _fifo(tweets, arrival_rate, service_s):
    """Tweet *i* arrives at ``i / arrival_rate`` and costs ``service_s``.

    Returns the per-tweet latencies (completion minus arrival) and the
    deepest backlog of waiting tweets.
    """
    queue = BoundedIngestQueue(capacity=len(tweets))
    latencies = []

    def serve(start_s):
        (entry,) = queue.drain_entries(1)
        latencies.append(start_s + service_s - entry.arrival_s)
        return service_s

    free_s = 0.0
    for index, tweet in enumerate(tweets):
        arrival_s = index / arrival_rate
        free_s = serve_backlog(queue, free_s, serve, until_s=arrival_s)
        queue.offer(tweet, arrival_s=arrival_s)
    serve_backlog(queue, free_s, serve)
    return latencies, queue.max_depth


def _closed_loop(arrivals, queue, service_model, batch_size=500,
                 controller=None):
    """Batches whose duration is ``len(batch) * service_model[tier]``.

    Returns the number of tweets processed and the makespan.
    """
    n_processed = 0

    def serve(start_s):
        nonlocal n_processed
        fraction_before = queue.depth_fraction
        if controller is None:
            batch = queue.drain(batch_size)
            duration = len(batch) * service_model[0]
        else:
            batch = queue.drain(controller.batch_size)
            duration = len(batch) * service_model[int(controller.tier)]
            controller.observe_batch(duration, queue_fraction=fraction_before)
        n_processed += len(batch)
        return duration

    free_s = 0.0
    for tweet, arrival_s in arrivals:
        free_s = serve_backlog(queue, free_s, serve, until_s=arrival_s)
        queue.offer(tweet, arrival_s=arrival_s)
    makespan_s = serve_backlog(queue, free_s, serve)
    return n_processed, makespan_s


def _unlabeled(n):
    from repro.data.loader import strip_labels
    from repro.data.synthetic import AbusiveDatasetGenerator

    generator = AbusiveDatasetGenerator(n_tweets=n, seed=11)
    return list(strip_labels(generator.generate()))


class TestQueueingModel:
    def test_empty_stream(self):
        def serve(start_s):
            raise AssertionError("an empty backlog needs no server")

        assert serve_backlog(BoundedIngestQueue(), 1.5, serve) == 1.5

    def test_underload_latency_equals_service_time(self, small_stream):
        # Offered 100/s, capacity 1000/s: no queueing, latency = 1ms.
        latencies, max_depth = _fifo(small_stream[:200], 100.0, 0.001)
        assert sum(latencies) / len(latencies) == pytest.approx(0.001)
        assert max_depth <= 1

    def test_overload_latency_grows(self, small_stream):
        # Offered 2000/s, capacity 1000/s: the queue diverges.
        latencies, max_depth = _fifo(small_stream[:1000], 2000.0, 0.001)
        # Latency of the last tweets ~ n * (1/1000 - 1/2000).
        assert max(latencies) > 0.4
        assert percentile(latencies, 99) > percentile(latencies, 50)
        # Tweet j (odd) arrives at j/2000 s; tweets (j+1)/2 .. j are
        # waiting then (the one in service has left the queue), so the
        # last one sees (999+1)/2.
        assert max_depth == 500

    def test_latency_monotone_in_rate(self, small_stream):
        slow, _ = _fifo(small_stream[:300], 100.0, 0.002)
        fast, _ = _fifo(small_stream[:300], 450.0, 0.002)
        assert percentile(fast, 95) >= percentile(slow, 95)

    def test_fifo_matches_the_per_tweet_replay_it_replaced(
        self, small_stream
    ):
        # Literals printed by the per-tweet FIFO replay this server
        # replaced, on the same 1 000 tweets at 2 000/s with 1 ms each.
        latencies, _ = _fifo(small_stream[:1000], 2000.0, 0.001)
        assert sum(latencies) / len(latencies) == 0.2507500000000003
        assert percentile(latencies, 50) == 0.25075000000000036
        assert percentile(latencies, 95) == 0.47552500000000075
        assert percentile(latencies, 99) == 0.4955050000000008
        assert max(latencies) == 0.5005000000000006


class TestRealPipelineReplay:
    def test_measured_service_rate_positive(self, small_stream):
        # Realistic mode: each batch's duration is the pipeline's
        # measured wall time.
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        queue = BoundedIngestQueue()
        durations = []

        def serve(start_s):
            (tweet,) = queue.drain(1)
            started = time.perf_counter()
            pipeline.process(tweet)
            durations.append(time.perf_counter() - started)
            return durations[-1]

        free_s = 0.0
        for index, tweet in enumerate(small_stream[:300]):
            free_s = serve_backlog(queue, free_s, serve, until_s=index / 50)
            queue.offer(tweet, arrival_s=index / 50)
        serve_backlog(queue, free_s, serve)
        assert len(durations) == 300
        # This pipeline does >100 tweets/s.
        assert len(durations) / sum(durations) > 100


class TestClosedLoopReplay:
    def test_rejects_bad_batch_size(self, small_stream):
        queue = BoundedIngestQueue()
        queue.offer(small_stream[0], arrival_s=0.0)
        with pytest.raises(ValueError):
            _closed_loop([], queue, {0: 0.001}, batch_size=0)

    def test_overload_sheds_but_stays_bounded_and_accounted(self):
        tweets = _unlabeled(3000)
        schedule = ArrivalSchedule(rate_hz=2000.0, shape="uniform")
        queue = BoundedIngestQueue(capacity=200)
        n_processed, makespan_s = _closed_loop(
            schedule.assign(tweets),
            queue,
            {0: 0.001},  # server capacity 1000/s: 2x overload
            batch_size=100,
        )
        assert queue.n_offered == 3000
        assert queue.n_offered == n_processed + queue.n_shed
        assert queue.n_shed > 0
        assert queue.max_depth <= 200
        assert 0 < queue.n_shed < queue.n_offered
        assert n_processed / makespan_s == pytest.approx(1000.0, rel=0.1)
        assert len(queue) == 0

    def test_controller_degrades_under_burst_and_recovers(self):
        # Mean 1000/s against a 1250/s full-tier server, with 3x bursts:
        # each burst drives the tiers down, each quiet phase restores
        # them — ending back at FULL.
        tweets = _unlabeled(6000)
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
        n_processed, _ = _closed_loop(
            schedule.assign(tweets),
            queue,
            {0: 0.0008, 1: 0.0005, 2: 0.0003},
            controller=controller,
        )
        assert queue.n_offered == n_processed + queue.n_shed
        assert controller.n_degrades > 0
        assert controller.n_recovers > 0
        assert controller.max_tier_reached == 2
        assert controller.tier == 0  # recovered by the end
        assert controller.n_deadline_misses > 0

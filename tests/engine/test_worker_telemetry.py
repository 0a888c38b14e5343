"""Cross-process tracing: worker spans ship back and stitch into one tree.

Partition tasks run in worker processes the driver cannot see into;
the engine closes that gap by capturing per-stage spans worker-side,
shipping them in the partition output, and stitching them under the
driver's own spans into ``engine.last_trace``. These tests pin the
contract end to end: the stitched tree's shape, the serial-runner
coverage invariant (worker span time accounts for nearly all of the
driver's ``partition_execute`` time), real worker pids under the
process runner, broadcast encode/decode accounting, and — the
subtle one — that retry and speculation losers contribute their
telemetry exactly zero times, so per-stage histograms never double
count.
"""

from __future__ import annotations

import collections
import gc
import os

import pytest

from repro.core.config import PipelineConfig
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine import microbatch
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import ProcessPoolRunner
from repro.obs.metrics import Counter, Histogram, MetricsRegistry
from repro.obs.tracing import WORKER_STAGE_SECONDS
from repro.reliability.faults import FaultInjectingRunner, FaultInjector
from repro.reliability.supervisor import RetryPolicy


def _tweets(n=600, seed=11):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


def _span_names(nodes):
    names = []
    for node in nodes:
        names.append(node["name"])
        names.extend(_span_names(node["children"]))
    return names


def _no_sleep_policy():
    return RetryPolicy(
        max_retries=3, base_delay_s=0.0, jitter=0.0, sleep=lambda _s: None
    )


class TestSerialStitching:
    def test_last_trace_holds_driver_and_worker_spans(self):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=300
        )
        result = engine.run(_tweets())
        trace = engine.last_trace
        assert trace is not None
        assert trace["trace_id"] == "microbatch-batch-1"  # 0-based, last
        driver_names = _span_names(trace["driver"])
        assert "partition_execute" in driver_names
        assert len(trace["partitions"]) == 4
        for node in trace["partitions"]:
            assert node["status"] == "ok"
            assert node["pid"] == os.getpid()  # serial: driver process
            assert node["wall_s"] >= 0.0
            assert node["spans"][0]["name"] == "partition"
            # The worker pipeline stages nest under the root span.
            stages = _span_names(node["spans"])
            assert "decode" in stages
            assert "extract" in stages
        # Aggregated view exists and matches the metric family.
        assert result.worker_stage_seconds
        assert "partition" in result.worker_stage_seconds

    def test_worker_spans_cover_driver_execute_time(self):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=4, batch_size=300
        )
        tweets = _tweets(n=1200, seed=5)
        # A full collection of the whole suite's heap that lands inside
        # the driver span but between worker spans would read as
        # missing coverage; start the run with nothing left to collect.
        gc.collect()
        result = engine.run(tweets)
        worker_s = result.worker_stage_seconds["partition"]
        driver_s = result.stage_seconds.partition_execute
        assert driver_s > 0.0
        # Serial: workers run inside the driver span, so coverage is a
        # fraction of 1 — and near 1, or the trace is lying about where
        # the time goes. (The fig16 bench pins the >=0.9 acceptance bar
        # at scale; this keeps a margin for tiny-workload jitter.)
        assert 0.7 <= worker_s / driver_s <= 1.0

    def test_worker_telemetry_off_ships_no_spans(self):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=300,
            worker_telemetry=False,
        )
        result = engine.run(_tweets(n=300))
        assert engine.last_trace is not None
        assert engine.last_trace["partitions"] == []
        assert result.worker_stage_seconds == {}
        # Metrics still ship: telemetry is the spans, not the counters.
        assert engine.metrics.total("tweets_processed_total") == 300
        assert result.n_processed == 300


class TestTelemetryBudget:
    """Counted, not timed: registry calls per partition block."""

    def test_fast_path_partition_books_amortised_stages_once(
        self, monkeypatch
    ):
        partition_metrics = set()
        calls = collections.Counter()

        class PartitionRegistry(MetricsRegistry):
            def histogram(self, name, **kwargs):
                child = super().histogram(name, **kwargs)
                partition_metrics.add(child)
                return child

            def counter(self, name, **kwargs):
                child = super().counter(name, **kwargs)
                partition_metrics.add(child)
                return child

        def counted(method):
            def wrapper(self, *args):
                if self in partition_metrics:
                    calls[method.__name__] += 1
                return method(self, *args)

            return wrapper

        # Only registries built from here on are counted: the one each
        # partition task creates for itself, not the driver's.
        monkeypatch.setattr(microbatch, "MetricsRegistry", PartitionRegistry)
        monkeypatch.setattr(Histogram, "observe", counted(Histogram.observe))
        monkeypatch.setattr(
            Histogram, "observe_repeated", counted(Histogram.observe_repeated)
        )
        monkeypatch.setattr(Counter, "inc", counted(Counter.inc))
        for size in (120, 500):
            calls.clear()
            engine = MicroBatchEngine(
                PipelineConfig(n_classes=3), n_partitions=1, batch_size=size
            )
            result = engine.run(_tweets(n=size, seed=3))
            assert result.n_processed == size
            assert calls == {
                # extract, normalize, predict and learn, once each for
                # the whole block (a partition made 511 histogram calls
                # for 500 tweets when extract was booked row by row) ...
                "observe_repeated": 4,
                # ... the eight worker spans closing ...
                "observe": 8,
                # ... tweets processed / labeled (this stream is all
                # labelled) and the broadcast decode.
                "inc": 3,
            }
            stages = engine.metrics.histogram(
                "tweet_stage_seconds", engine="microbatch", stage="extract"
            )
            assert stages.count == size
            assert stages.sum == pytest.approx(stages.max * size)


class TestProcessStitching:
    def test_partition_nodes_carry_real_worker_pids(self):
        with MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=400,
            runner="processes",
            n_workers=2,
        ) as engine:
            engine.run(_tweets(n=400))
            trace = engine.last_trace
        assert trace is not None
        assert len(trace["partitions"]) == 2
        for node in trace["partitions"]:
            assert node["pid"] > 0
            assert node["pid"] != os.getpid()
            assert node["spans"][0]["name"] == "partition"


class TestBroadcastAccounting:
    def test_serial_decodes_live_and_never_encodes(self):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=2, batch_size=300
        )
        engine.run(_tweets())
        # 2 batches x 2 partitions, every decode from the live objects.
        assert engine.metrics.total(
            "broadcast_decode_total", source="live"
        ) == 4
        assert engine.metrics.total("broadcast_decode_total") == 4
        # No pickling happens, so neither timing histogram fills.
        assert engine.metrics.histogram("broadcast_decode_seconds").count == 0
        assert engine.metrics.histogram(
            "broadcast_encode_seconds", engine="microbatch"
        ).count == 0

    def test_processes_record_encode_and_decode_timings(self):
        with MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=400,
            runner="processes",
            n_workers=2,
        ) as engine:
            engine.run(_tweets(n=400))
            decode_total = engine.metrics.total("broadcast_decode_total")
            live = engine.metrics.total(
                "broadcast_decode_total", source="live"
            )
            encodes = engine.metrics.histogram(
                "broadcast_encode_seconds", engine="microbatch"
            ).count
            decode_s = engine.metrics.histogram(
                "broadcast_decode_seconds"
            ).count
        assert decode_total == 2 and live == 0  # real cross-process decodes
        assert encodes == 1  # one batch -> one pickled payload
        assert decode_s == 2  # each worker timed its decode


class TestLoserTelemetryDiscarded:
    """Retry and speculation produce extra task *attempts*; only the
    winning attempt's telemetry may merge, exactly once."""

    def test_retried_partition_contributes_one_span_set(self):
        tweets = _tweets()
        injector = FaultInjector(schedule={0: (0,)}, kind="error")
        runner = FaultInjectingRunner(
            ProcessPoolRunner(n_processes=2), injector, owns_inner=True
        )
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=len(tweets),
            runner=runner,
            retry_policy=_no_sleep_policy(),
            partition_deadline_s=30.0,
        )
        try:
            result = engine.run(tweets)
        finally:
            engine.close()
            runner.close()
        assert injector.n_injected == 1
        assert result.n_retries == 1
        # The failed attempt shipped nothing; the retry shipped once.
        assert engine.metrics.histogram(
            WORKER_STAGE_SECONDS, engine="microbatch", stage="partition"
        ).count == 2
        assert engine.metrics.total("tweets_processed_total") == len(tweets)
        assert result.n_processed == len(tweets)

    def test_speculation_loser_discarded_exactly_once(self):
        tweets = _tweets()
        # Partition 0 is slowed (but succeeds); with the speculation
        # point (fraction x deadline = 0.6s) well under slow_s, a
        # duplicate attempt launches. Both attempts execute the full
        # task — whichever wins, the loser's telemetry and counters
        # must be dropped with it.
        injector = FaultInjector(
            schedule={0: (0,)}, kind="slow_partition", slow_s=1.5
        )
        runner = FaultInjectingRunner(
            ProcessPoolRunner(n_processes=2), injector, owns_inner=True
        )
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=len(tweets),
            runner=runner,
            retry_policy=_no_sleep_policy(),
            partition_deadline_s=30.0,
            speculate=0.02,
        )
        try:
            result = engine.run(tweets)
        finally:
            engine.close()
            runner.close()
        assert engine.metrics.total("speculative_launches_total") >= 1
        # Exactly one telemetry set per partition, not per attempt.
        assert engine.metrics.histogram(
            WORKER_STAGE_SECONDS, engine="microbatch", stage="partition"
        ).count == 2
        assert engine.metrics.total("tweets_processed_total") == len(tweets)
        assert result.n_processed == len(tweets)
        (node_a, node_b) = engine.last_trace["partitions"]
        assert {node_a["partition"], node_b["partition"]} == {0, 1}

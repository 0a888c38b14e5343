"""Extension benches (beyond the paper's figures).

* Session-level detection: the future-work experiment — does grouping
  tweets into per-user windows detect *bullying users* better than
  counting tweet-level alerts?
* Latency budget: replay the stream at increasing arrival rates
  through the real pipeline and find the highest rate that keeps p95
  detection latency under one second — the operational meaning of
  "real-time" on one machine.
"""

from __future__ import annotations

import time

import bench_util
from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline
from repro.core.sessions import SessionDetectionPipeline
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.reliability.overload import BoundedIngestQueue, serve_backlog
from repro.streamml.stats import percentile


def _session_experiment():
    stream = AbusiveDatasetGenerator(
        n_tweets=10_000, seed=13, user_pool_size=300
    ).generate_list()
    pipeline = SessionDetectionPipeline(
        PipelineConfig(n_classes=2), window_size=6 * 3600.0
    )
    result = pipeline.process_stream(stream)
    # User-level ground truth: a bullying user posts mostly aggression.
    user_truth = {}
    for tweet in stream:
        stats = user_truth.setdefault(tweet.user.user_id, [0, 0])
        stats[0] += tweet.label != "normal"
        stats[1] += 1
    bullies = {
        u for u, (agg, total) in user_truth.items()
        if total >= 5 and agg / total >= 0.8
    }
    flagged = {
        u for u, count in pipeline.flagged_users.items() if count >= 2
    }
    true_positive = len(bullies & flagged)
    precision = true_positive / len(flagged) if flagged else 0.0
    recall = true_positive / len(bullies) if bullies else 0.0
    return result, precision, recall, len(bullies), len(flagged)


def test_extension_session_detection(benchmark):
    result, precision, recall, n_bullies, n_flagged = benchmark.pedantic(
        _session_experiment, rounds=1, iterations=1
    )
    bench_util.report(
        "extension_sessions",
        "Extension — session-level bullying-user detection",
        ["metric", "value"],
        [
            ["sessions emitted", result.n_sessions],
            ["session-classifier accuracy", result.metrics["accuracy"]],
            ["session-classifier F1", result.metrics["f1"]],
            ["true bullying users", n_bullies],
            ["users flagged (>=2 sessions)", n_flagged],
            ["user-level precision", precision],
            ["user-level recall", recall],
        ],
    )
    assert result.metrics["accuracy"] > 0.75
    assert precision > 0.60
    assert recall > 0.60


def _fifo_latencies(tweets, arrival_rate, service_s):
    """Per-tweet detection latency through one FIFO server in simulated
    time: tweet *i* arrives at ``i / arrival_rate`` and costs
    ``service_s``; latency is completion minus arrival."""
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
    return latencies


def _latency_experiment():
    tweets = bench_util.abusive_stream(3000)
    pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
    # Warm the model so service times reflect steady state.
    for tweet in tweets[:500]:
        pipeline.process(tweet)
    started = time.perf_counter()
    for tweet in tweets[500:1000]:
        pipeline.process(tweet)
    service_s = (time.perf_counter() - started) / 500
    # Re-run as a deterministic queueing simulation at several loads.
    loads = [0.25, 0.5, 0.8, 0.95, 1.2]
    latencies = {
        load: _fifo_latencies(tweets[1000:2500], load / service_s, service_s)
        for load in loads
    }
    return 1.0 / service_s, latencies


def test_extension_latency_budget(benchmark):
    service_rate, latencies = benchmark.pedantic(
        _latency_experiment, rounds=1, iterations=1
    )
    p50 = {load: percentile(lat, 50) for load, lat in latencies.items()}
    p95 = {load: percentile(lat, 95) for load, lat in latencies.items()}
    rows = [
        [f"{load:.2f}x", f"{load * service_rate:,.0f}",
         p50[load] * 1000, p95[load] * 1000,
         "yes" if load < 1.0 else "NO"]
        for load in sorted(latencies)
    ]
    bench_util.report(
        "extension_latency",
        "Extension — detection latency vs offered load "
        f"(measured capacity ≈ {service_rate:,.0f} tweets/s)",
        ["load", "tweets/s", "p50 (ms)", "p95 (ms)", "stable"],
        rows,
        notes=["latency stays near the per-tweet service time until "
               "utilization approaches 1, then diverges"],
    )
    assert p95[0.25] < 0.05
    assert p95[1.2] > p95[0.5] * 5

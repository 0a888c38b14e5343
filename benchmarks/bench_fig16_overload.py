"""Fig. 16 (overload companion): max stable rate with/without degradation.

The paper's Fig. 16 asks what sustained rate each configuration
survives. This companion asks the overload question the paper's
open-loop harness cannot: when the firehose *exceeds* capacity, how
much higher can the sustainable rate go if the pipeline is allowed to
degrade (shrink batches, drop to cheaper feature tiers) instead of
shedding? The closed-loop replay is fully simulated (per-tier service
model, seeded Poisson arrivals), so the sweep is deterministic and
host-independent.
"""

from __future__ import annotations

import bench_util
from repro.data.firehose import ArrivalSchedule
from repro.data.loader import strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.reliability.overload import (
    BoundedIngestQueue,
    OverloadController,
    serve_backlog,
)

#: Per-tweet service seconds by degrade tier (FULL / NO_POS /
#: TEXT_ONLY), calibrated to the measured extractor cost split.
SERVICE_MODEL = {0: 0.0008, 1: 0.0005, 2: 0.0003}
RATES_HZ = (800, 1000, 1200, 1500, 1800, 2200, 2600, 3000, 3400)
QUEUE_CAPACITY = 2000
BATCH_SIZE = 500
BATCH_DEADLINE_S = 0.3
#: A rate is "stable" when sustained shedding stays below 1%.
STABLE_SHED_FRACTION = 0.01


def _replay(tweets, rate_hz, degradation):
    schedule = ArrivalSchedule(rate_hz=float(rate_hz), seed=13)
    queue = BoundedIngestQueue(capacity=QUEUE_CAPACITY)
    controller = None
    if degradation:
        controller = OverloadController(
            batch_deadline_s=BATCH_DEADLINE_S,
            batch_size=BATCH_SIZE,
            min_batch_size=BATCH_SIZE // 4,
            queue=queue,
        )
    n_processed = 0

    def serve(start_s):
        nonlocal n_processed
        fraction_before = queue.depth_fraction
        if controller is None:
            batch = queue.drain(BATCH_SIZE)
            duration = len(batch) * SERVICE_MODEL[0]
        else:
            batch = queue.drain(controller.batch_size)
            duration = len(batch) * SERVICE_MODEL[int(controller.tier)]
            controller.observe_batch(duration, queue_fraction=fraction_before)
        n_processed += len(batch)
        return duration

    free_s = 0.0
    for tweet, arrival_s in schedule.assign(tweets):
        free_s = serve_backlog(queue, free_s, serve, until_s=arrival_s)
        queue.offer(tweet, arrival_s=arrival_s)
    serve_backlog(queue, free_s, serve)
    return {
        "n_offered": queue.n_offered,
        "n_processed": n_processed,
        "n_shed": queue.n_shed,
        "shed_fraction": queue.n_shed / max(1, queue.n_offered),
        "max_tier_reached": (
            int(controller.max_tier_reached) if controller else 0
        ),
        "n_deadline_misses": (
            controller.n_deadline_misses if controller else 0
        ),
        "max_queue_depth": queue.max_depth,
    }


def _max_stable(by_rate):
    stable = [
        rate
        for rate, report in by_rate.items()
        if report["shed_fraction"] < STABLE_SHED_FRACTION
    ]
    return max(stable) if stable else None


def test_fig16_overload_degradation(benchmark):
    # Fixed size regardless of REPRO_BENCH_TWEETS: the sweep is a pure
    # simulation (noop processor + service model), already fast, and a
    # pinned workload keeps the reported stable rates reproducible.
    n_tweets = 12_000
    generator = AbusiveDatasetGenerator(n_tweets=n_tweets, seed=11)
    tweets = list(strip_labels(generator.generate()))

    def sweep():
        fixed = {r: _replay(tweets, r, degradation=False) for r in RATES_HZ}
        adaptive = {r: _replay(tweets, r, degradation=True) for r in RATES_HZ}
        return fixed, adaptive

    fixed, adaptive = benchmark.pedantic(sweep, rounds=1, iterations=1)
    max_fixed = _max_stable(fixed)
    max_adaptive = _max_stable(adaptive)
    rows = [
        [
            rate,
            f"{fixed[rate]['shed_fraction']:.1%}",
            f"{adaptive[rate]['shed_fraction']:.1%}",
            adaptive[rate]["max_tier_reached"],
            adaptive[rate]["n_deadline_misses"],
        ]
        for rate in RATES_HZ
    ]
    bench_util.report(
        "fig16_overload",
        "Fig. 16 (overload companion) — shed fraction vs offered rate, "
        "degradation off/on",
        ["rate (tweets/s)", "shed (fixed)", "shed (adaptive)",
         "worst tier", "deadline misses"],
        rows,
        notes=[
            f"{n_tweets} unlabeled tweets, Poisson arrivals, per-tier "
            f"service model {SERVICE_MODEL} s/tweet, queue capacity "
            f"{QUEUE_CAPACITY}, batch {BATCH_SIZE}",
            f"max stable rate (<{STABLE_SHED_FRACTION:.0%} shed): "
            f"fixed {max_fixed} tweets/s, adaptive {max_adaptive} tweets/s",
        ],
    )
    # Full-tier capacity is 1/0.0008 = 1250/s; the 2000-deep queue
    # absorbs a finite run's transient up to 1500/s, then shedding is
    # unavoidable for the fixed pipeline.
    assert max_fixed == 1500
    assert fixed[2600]["shed_fraction"] > 0.3
    # Degradation buys real headroom: a higher stable rate, and far
    # less shedding at every overloaded rate.
    assert max_adaptive > max_fixed
    for rate in RATES_HZ:
        if rate > max_fixed:
            assert (
                adaptive[rate]["shed_fraction"]
                < 0.5 * fixed[rate]["shed_fraction"]
            )
    # Both modes keep exact accounting at every rate.
    for by_rate in (fixed, adaptive):
        for report in by_rate.values():
            assert (
                report["n_offered"]
                == report["n_processed"] + report["n_shed"]
            )
            assert report["max_queue_depth"] <= QUEUE_CAPACITY

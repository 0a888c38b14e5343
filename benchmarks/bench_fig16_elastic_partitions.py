"""Fig. 16 (elasticity companion): max stable rate, elastic partitions on/off.

The overload companion showed degradation (batch shrink + cheaper
feature tiers) buys headroom over a fixed pipeline. This companion
asks the next question: when partitioned execution itself is the
bottleneck — every partition adds fixed coordination overhead
(dispatch, result pickling, merge) and one more straggler domain —
how much higher can the sustainable rate go if the controller may
also *resize the partition count*?

The closed loop is fully simulated: per-tier service model, seeded
Poisson arrivals, and a seeded straggler draw per partition per batch
(a straggler burns the partition deadline, then the slice is retried).
Both configurations run the same adaptive controller (batch shrink +
tier degradation); only the elastic one may trade parallelism for
fewer straggler domains and less per-batch coordination overhead.
"""

from __future__ import annotations

import math
import random

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
#: TEXT_ONLY), divided across partitions.
SERVICE_MODEL = {0: 0.0008, 1: 0.0005, 2: 0.0003}
RATES_HZ = (400, 600, 800, 1000, 1200, 1500, 1800)
QUEUE_CAPACITY = 2000
BATCH_SIZE = 500
BATCH_DEADLINE_S = 0.3
N_PARTITIONS = 8
#: Fixed coordination cost per partition per batch (dispatch + merge).
PARTITION_OVERHEAD_S = 0.01
#: Seeded probability that any one partition straggles in a batch.
STRAGGLER_P = 0.08
#: A straggling partition burns the deadline, then its slice re-runs.
PARTITION_DEADLINE_S = 0.5
#: A rate is "stable" when sustained shedding stays bounded. The
#: straggler draw makes capacity inherently bursty (one bad batch
#: sheds a queue's worth), so the bound is looser than the overload
#: companion's 1%.
STABLE_SHED_FRACTION = 0.10


def _batch_duration(n_tweets, n_partitions, tier, rng):
    """Simulated wall time for one partitioned batch, plus stragglers."""
    per_tweet = SERVICE_MODEL[tier]
    slice_s = math.ceil(n_tweets / n_partitions) * per_tweet
    duration = slice_s + n_partitions * PARTITION_OVERHEAD_S
    n_stragglers = sum(
        1 for _ in range(n_partitions) if rng.random() < STRAGGLER_P
    )
    if n_stragglers:
        # The deadline catches the stragglers in parallel; the lost
        # slices are then retried (one more slice of work).
        duration += PARTITION_DEADLINE_S + slice_s
    return duration, n_stragglers


def _replay(tweets, rate_hz, elastic):
    schedule = ArrivalSchedule(rate_hz=float(rate_hz), seed=13)
    queue = BoundedIngestQueue(capacity=QUEUE_CAPACITY)
    kwargs = {}
    if elastic:
        kwargs = {
            "n_partitions": N_PARTITIONS,
            "min_partitions": 1,
            "max_partitions": N_PARTITIONS,
        }
    controller = OverloadController(
        batch_deadline_s=BATCH_DEADLINE_S,
        batch_size=BATCH_SIZE,
        min_batch_size=BATCH_SIZE // 4,
        queue=queue,
        **kwargs,
    )
    rng = random.Random(10_000 + rate_hz)
    n_processed = 0
    total_stragglers = 0

    def serve(start_s):
        nonlocal n_processed, total_stragglers
        fraction_before = queue.depth_fraction
        batch = queue.drain(controller.batch_size)
        n_parts = (
            controller.n_partitions if elastic else N_PARTITIONS
        )
        duration, n_stragglers = _batch_duration(
            len(batch), n_parts, int(controller.tier), rng
        )
        n_processed += len(batch)
        total_stragglers += n_stragglers
        controller.observe_batch(
            duration,
            queue_fraction=fraction_before,
            n_stragglers=n_stragglers,
        )
        return duration

    server_free_s = 0.0
    for tweet, arrival_s in schedule.assign(tweets):
        server_free_s = serve_backlog(
            queue, server_free_s, serve, until_s=arrival_s
        )
        queue.offer(tweet, arrival_s=arrival_s)
    server_free_s = serve_backlog(queue, server_free_s, serve)

    return {
        "n_offered": queue.n_offered,
        "n_processed": n_processed,
        "n_shed": queue.n_shed,
        "shed_fraction": queue.n_shed / max(1, queue.n_offered),
        "final_partitions": (
            controller.n_partitions if elastic else N_PARTITIONS
        ),
        "n_partition_resizes": controller.n_partition_resizes,
        "n_stragglers": total_stragglers,
        "max_queue_depth": queue.max_depth,
        "makespan_s": server_free_s,
    }


def _max_stable(by_rate):
    stable = [
        rate
        for rate, report in by_rate.items()
        if report["shed_fraction"] < STABLE_SHED_FRACTION
    ]
    return max(stable) if stable else None


def test_fig16_elastic_partitions(benchmark):
    # Fixed size regardless of REPRO_BENCH_TWEETS: pure simulation,
    # pinned workload keeps the reported stable rates reproducible.
    n_tweets = 12_000
    generator = AbusiveDatasetGenerator(n_tweets=n_tweets, seed=11)
    tweets = list(strip_labels(generator.generate()))

    def sweep():
        fixed = {r: _replay(tweets, r, elastic=False) for r in RATES_HZ}
        elastic = {r: _replay(tweets, r, elastic=True) for r in RATES_HZ}
        return fixed, elastic

    fixed, elastic = benchmark.pedantic(sweep, rounds=1, iterations=1)
    max_fixed = _max_stable(fixed)
    max_elastic = _max_stable(elastic)
    rows = [
        [
            rate,
            f"{fixed[rate]['shed_fraction']:.1%}",
            f"{elastic[rate]['shed_fraction']:.1%}",
            elastic[rate]["final_partitions"],
            elastic[rate]["n_partition_resizes"],
            elastic[rate]["n_stragglers"],
        ]
        for rate in RATES_HZ
    ]
    bench_util.report(
        "fig16_elastic_partitions",
        "Fig. 16 (elasticity companion) — shed fraction vs offered rate, "
        "elastic partition count off/on",
        ["rate (tweets/s)", "shed (fixed 8p)", "shed (elastic)",
         "final partitions", "resizes", "stragglers"],
        rows,
        notes=[
            f"{n_tweets} unlabeled tweets, Poisson arrivals, per-tier "
            f"service model {SERVICE_MODEL} s/tweet across partitions, "
            f"{PARTITION_OVERHEAD_S}s coordination overhead/partition, "
            f"straggler p={STRAGGLER_P}/partition "
            f"(deadline {PARTITION_DEADLINE_S}s + slice retry)",
            f"max stable rate (<{STABLE_SHED_FRACTION:.0%} shed): "
            f"fixed {max_fixed} tweets/s, elastic {max_elastic} tweets/s",
        ],
    )
    # Elastic partitioning must never be worse, and under straggler-
    # heavy overload it must buy real headroom: fewer partitions mean
    # fewer straggler domains and less coordination overhead per batch.
    assert max_fixed is not None and max_elastic is not None
    assert max_elastic > max_fixed
    for rate in RATES_HZ:
        if max_fixed is not None and rate > max_fixed:
            assert (
                elastic[rate]["shed_fraction"]
                <= fixed[rate]["shed_fraction"]
            )
    # Overload actually engaged the actuator at the top rate.
    assert elastic[RATES_HZ[-1]]["n_partition_resizes"] >= 1
    assert elastic[RATES_HZ[-1]]["final_partitions"] < N_PARTITIONS
    # Exact accounting at every rate, both modes.
    for by_rate in (fixed, elastic):
        for report in by_rate.values():
            assert (
                report["n_offered"]
                == report["n_processed"] + report["n_shed"]
            )
            assert report["max_queue_depth"] <= QUEUE_CAPACITY

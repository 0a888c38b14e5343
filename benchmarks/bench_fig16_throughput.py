"""Fig. 16: throughput per streaming system vs workload size.

Paper headline numbers: MOA and SparkSingle constant around ~1,100 and
~950 tweets/s; SparkLocal ~6k tweets/s; SparkCluster up to ~14.5k
tweets/s, both plateauing after ~1M tweets — comfortably above the
reported Twitter Firehose rate of ~9k tweets/s with 3 machines.
"""

from __future__ import annotations

import bench_util
from repro.engine.cluster import (
    PAPER_SPECS,
    SimulatedCluster,
    machines_needed_for_firehose,
)

WORKLOADS = (250_000, 500_000, 1_000_000, 1_500_000, 2_000_000)
FIREHOSE_RATE = 9_000.0


def _simulate():
    grid = {}
    for spec in PAPER_SPECS:
        cluster = SimulatedCluster(spec)
        grid[spec.name] = [cluster.throughput(n) for n in WORKLOADS]
    return grid


def test_fig16_throughput(benchmark):
    grid = benchmark.pedantic(_simulate, rounds=1, iterations=1)
    rows = [
        [f"{n // 1000}k"]
        + [round(grid[spec.name][i]) for spec in PAPER_SPECS]
        for i, n in enumerate(WORKLOADS)
    ]
    machines = machines_needed_for_firehose()
    bench_util.report(
        "fig16_throughput",
        "Fig. 16 — throughput (tweets/s) per streaming system (cost model)",
        ["tweets"] + [spec.name for spec in PAPER_SPECS],
        rows,
        notes=[
            f"reported Twitter Firehose: ~{FIREHOSE_RATE:,.0f} tweets/s",
            f"machines needed to sustain the Firehose (with headroom): "
            f"{machines}",
        ],
    )
    throughput = {spec.name: dict(zip(WORKLOADS, grid[spec.name]))
                  for spec in PAPER_SPECS}
    # Paper-calibrated plateaus.
    assert abs(throughput["MOA"][2_000_000] - 1100) < 50
    assert abs(throughput["SparkLocal"][2_000_000] - 6000) < 600
    assert abs(throughput["SparkCluster"][2_000_000] - 14_500) < 1500
    # Plateau after ~1M tweets for the parallel setups.
    for name in ("SparkLocal", "SparkCluster"):
        t1m = throughput[name][1_000_000]
        t2m = throughput[name][2_000_000]
        assert (t2m - t1m) / t1m < 0.10
    # The cluster comfortably covers the Firehose; 3 machines suffice.
    assert throughput["SparkCluster"][2_000_000] > FIREHOSE_RATE
    assert machines == 3

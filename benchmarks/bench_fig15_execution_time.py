"""Fig. 15: execution time per streaming system vs workload size.

Reproduced with the calibrated cluster cost model (we have one machine,
not a 3-node Spark cluster — see DESIGN.md). Additionally measures the
real single-thread throughput of this Python pipeline so the model's
per-tweet cost can be cross-checked against actual execution.
"""

from __future__ import annotations

import bench_util
from repro.core.config import PipelineConfig
from repro.engine.cluster import PAPER_SPECS, SimulatedCluster
from repro.engine.sequential import SequentialEngine

WORKLOADS = (250_000, 500_000, 1_000_000, 1_500_000, 2_000_000)


def _simulate():
    grid = {}
    for spec in PAPER_SPECS:
        cluster = SimulatedCluster(spec)
        grid[spec.name] = [cluster.execution_time_s(n) for n in WORKLOADS]
    return grid


def _measure_real_throughput() -> float:
    engine = SequentialEngine(PipelineConfig(n_classes=3))
    return engine.measure_throughput(
        bench_util.abusive_stream(4000), warmup=500
    )


def test_fig15_execution_time(benchmark):
    grid = benchmark.pedantic(_simulate, rounds=1, iterations=1)
    real_throughput = _measure_real_throughput()
    rows = [
        [f"{n // 1000}k"] + [grid[spec.name][i] for spec in PAPER_SPECS]
        for i, n in enumerate(WORKLOADS)
    ]
    bench_util.report(
        "fig15_execution_time",
        "Fig. 15 — execution time (s) per streaming system (cost model)",
        ["tweets"] + [spec.name for spec in PAPER_SPECS],
        rows,
        notes=[
            f"measured single-thread throughput of THIS pipeline: "
            f"{real_throughput:,.0f} tweets/s",
            "paper @2M tweets: SparkLocal 5.5x and SparkCluster 13.2x "
            "faster than SparkSingle",
        ],
    )
    times = {spec.name: dict(zip(WORKLOADS, grid[spec.name]))
             for spec in PAPER_SPECS}
    # Linear growth for the sequential engines.
    assert times["MOA"][2_000_000] / times["MOA"][1_000_000] < 2.1
    # Ratio shape at 2M tweets.
    single = times["SparkSingle"][2_000_000]
    assert single / times["SparkLocal"][2_000_000] > 4.0
    assert single / times["SparkCluster"][2_000_000] > 10.0
    # MOA faster than SparkSingle but within the 7-17% band.
    assert 1.05 < single / times["MOA"][2_000_000] < 1.20


def test_fig15_real_microbatch_speed(benchmark):
    """Real (not simulated) micro-batch engine run, with stage timings."""
    from repro.engine.microbatch import MicroBatchEngine

    tweets = bench_util.abusive_stream(4000)

    def run():
        with MicroBatchEngine(
            PipelineConfig(n_classes=3), n_partitions=4, batch_size=1000
        ) as engine:
            return engine.run(tweets)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    stages = result.stage_seconds
    bench_util.report(
        "fig15_microbatch_stages",
        "Fig. 15 (companion) — real micro-batch engine per-stage timings",
        ["stage", "seconds", "share"],
        [
            [name, seconds, f"{seconds / max(stages.total, 1e-9):.1%}"]
            for name, seconds in stages.as_dict().items()
        ],
        notes=[
            f"4 partitions x 1000-tweet batches over {len(tweets)} tweets",
            f"throughput: {result.throughput:,.0f} tweets/s; driver-side "
            f"merge/drain: {stages.driver_seconds:.3f} s",
        ],
    )
    assert result.n_processed == 4000
    assert stages.partition_execute > 0
    # Driver work is O(partitions): merging models/BoW/normalizers must
    # stay a small fraction of the partition compute.
    assert stages.driver_seconds < 0.5 * stages.partition_execute

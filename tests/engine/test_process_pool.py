"""Real multi-process execution of the micro-batch engine.

The ProcessPoolRunner is the closest local analog to Spark executors:
partition tasks (with their model copies and feature extractors) are
pickled to worker processes and results shipped back. These tests prove
that the whole partition task graph is picklable and that multi-process
results match serial execution.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import ProcessPoolRunner


class TestProcessPoolRunner:
    def test_invalid_count(self):
        with pytest.raises(ValueError):
            ProcessPoolRunner(n_processes=0)

    def test_rdd_map_across_processes(self):
        with ProcessPoolRunner(n_processes=2) as runner:
            chunks = [list(range(start, 100, 4)) for start in range(4)]
            results = runner.run([_SquareAll(chunk) for chunk in chunks])
        assert results == [[i * i for i in chunk] for chunk in chunks]

    def test_microbatch_engine_on_processes(self, small_stream):
        with ProcessPoolRunner(n_processes=2) as runner:
            engine = MicroBatchEngine(
                PipelineConfig(n_classes=2),
                n_partitions=2,
                batch_size=500,
                runner=runner,
            )
            result = engine.run(small_stream[:1500])
        assert result.n_processed == 1500
        assert result.metrics["f1"] > 0.5

    def test_process_results_match_serial(self, small_stream):
        def run(runner=None):
            engine = MicroBatchEngine(
                PipelineConfig(n_classes=2),
                n_partitions=2,
                batch_size=500,
                runner=runner,
            )
            return engine.run(small_stream[:1500]).metrics["f1"]

        serial_f1 = run()
        with ProcessPoolRunner(n_processes=2) as runner:
            process_f1 = run(runner)
        # Same partitioning, same deterministic tasks: identical output.
        assert process_f1 == pytest.approx(serial_f1)


class _SquareAll:
    """Picklable task: square every item of one partition."""

    def __init__(self, items):
        self.items = items

    def __call__(self):
        return [item * item for item in self.items]

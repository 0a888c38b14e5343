"""Runner equivalence and failure attribution.

The partition tasks are deterministic and the runners preserve input
order, so the serial and process-pool runners must produce *identical*
cumulative metrics on the same seeded stream — the
execution backend is a pure throughput knob, never a results knob.
"""

from __future__ import annotations

import pytest

from repro.core.config import PipelineConfig
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import (
    PartitionError,
    ProcessPoolRunner,
    SerialRunner,
    make_runner,
)


def _run_metrics(small_stream, runner):
    engine = MicroBatchEngine(
        PipelineConfig(n_classes=2),
        n_partitions=3,
        batch_size=500,
        runner=runner,
    )
    result = engine.run(small_stream[:1500])
    return result.metrics


class TestRunnerEquivalence:
    def test_all_runners_identical_metrics(self, small_stream):
        serial = _run_metrics(small_stream, SerialRunner())
        with ProcessPoolRunner(n_processes=2) as processes:
            multiproc = _run_metrics(small_stream, processes)
        assert multiproc == pytest.approx(serial)

    def test_string_spec_matches_injected_runner(self, small_stream):
        injected = _run_metrics(small_stream, SerialRunner())
        with MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=3,
            batch_size=500,
            runner="processes",
            n_workers=2,
        ) as engine:
            spec_based = engine.run(small_stream[:1500]).metrics
        assert spec_based == pytest.approx(injected)


class TestMakeRunner:
    def test_kinds(self):
        assert isinstance(make_runner("serial"), SerialRunner)
        processes = make_runner("processes", n_workers=3)
        assert isinstance(processes, ProcessPoolRunner)
        assert processes.n_processes == 3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_runner("gpu")
        with pytest.raises(ValueError):
            make_runner("threads")


class TestRunnerOwnership:
    def test_engine_closes_owned_pool(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2),
            n_partitions=2,
            batch_size=500,
            runner="processes",
            n_workers=2,
        )
        engine.run(small_stream[:500])
        assert engine.runner._pool is not None
        engine.close()
        assert engine.runner._pool is None

    def test_engine_leaves_injected_runner_open(self, small_stream):
        with ProcessPoolRunner(n_processes=2) as runner:
            with MicroBatchEngine(
                PipelineConfig(n_classes=2),
                n_partitions=2,
                batch_size=500,
                runner=runner,
            ) as engine:
                engine.run(small_stream[:500])
            # The engine exited; the caller-owned pool must survive.
            assert runner._pool is not None
            assert runner.run([_ok, _ok]) == [1, 1]


class _Boom:
    def __call__(self):
        raise RuntimeError("kaput")


class TestPartitionFailure:
    def test_serial_runner_attributes_partition(self):
        runner = SerialRunner()
        with pytest.raises(PartitionError) as excinfo:
            runner.run([lambda: 1, _Boom(), lambda: 3])
        assert excinfo.value.partition_index == 1
        assert "kaput" in str(excinfo.value)

    def test_process_runner_attributes_partition(self):
        with ProcessPoolRunner(n_processes=2) as runner:
            with pytest.raises(PartitionError) as excinfo:
                runner.run([_ok, _boom, _ok])
        assert excinfo.value.partition_index == 1
        assert "RuntimeError" in excinfo.value.message

    def test_failed_batch_leaves_engine_unmutated(self, small_stream):
        engine = MicroBatchEngine(
            PipelineConfig(n_classes=2), n_partitions=2, batch_size=500
        )
        # A non-Tweet element fails feature extraction inside partition 0.
        poisoned = list(small_stream[:4]) + [object()]
        with pytest.raises(PartitionError) as excinfo:
            engine.process_batch(poisoned)
        assert excinfo.value.partition_index == 0
        assert engine.n_processed == 0
        assert engine.normalizer.observed == 0
        assert engine.model.instances_seen == 0
        assert engine.batches == []
        # The engine stays usable after a failed batch.
        result = engine.process_batch(small_stream[:500])
        assert result.n_processed == 500


def _ok():
    return 1


def _boom():
    raise RuntimeError("kaput")

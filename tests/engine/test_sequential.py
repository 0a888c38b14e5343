"""Tests for the sequential engine."""

from __future__ import annotations

from repro.core.config import PipelineConfig
from repro.engine.sequential import SequentialEngine


def _conserved(engine: SequentialEngine) -> bool:
    """``processed + quarantined + shed == ingested`` on the registry."""
    total = engine.metrics.total
    accounted = (
        total("tweets_processed_total")
        + total("tweets_quarantined_total")
        + total("tweets_shed_total")
    )
    return accounted == total("tweets_ingested_total")


class TestSequentialEngine:
    def test_run_reports_throughput(self, small_stream):
        engine = SequentialEngine(PipelineConfig(n_classes=2))
        result = engine.run(small_stream)
        assert result.pipeline_result.n_processed == len(small_stream)
        assert result.throughput > 0
        assert result.metrics["f1"] > 0.5
        assert _conserved(engine)

    def test_measure_throughput_after_warmup(self, small_stream):
        engine = SequentialEngine(PipelineConfig(n_classes=2))
        throughput = engine.measure_throughput(small_stream, warmup=200)
        assert throughput > 0
        # Warm-up and measured tweets are both ingested: the registry
        # benches read must balance whichever entry point drove it.
        assert engine.pipeline.n_processed == len(small_stream)
        assert _conserved(engine)

"""Both engines implement the one :class:`~repro.engine.Engine` contract
the supervisor and the CLI drive."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import engine_from_dict, engine_to_dict
from repro.core.config import PipelineConfig
from repro.core.features import DegradeTier
from repro.engine import Engine, MicroBatchEngine, SequentialEngine
from repro.reliability.overload import OverloadController
from repro.streamml.serialize import model_to_dict


def _sequential():
    return SequentialEngine(PipelineConfig(n_classes=2))


def _microbatch():
    return MicroBatchEngine(
        PipelineConfig(n_classes=2), n_partitions=2, batch_size=500
    )


@pytest.fixture(params=["sequential", "microbatch"])
def engine(request):
    built = {"sequential": _sequential, "microbatch": _microbatch}[
        request.param
    ]()
    yield built
    built.close()


def test_engine_satisfies_the_protocol(engine):
    assert isinstance(engine, Engine)
    assert engine.kind in ("sequential", "microbatch")
    assert engine.describe().startswith(engine.kind)


def test_process_chunk_returns_elapsed_and_books_ingest(engine, small_stream):
    chunk = small_stream[:250]
    elapsed = engine.process_chunk(chunk)
    assert elapsed > 0
    assert engine.metrics.total("tweets_ingested_total") == len(chunk)
    engine.process_chunk(small_stream[250:400])
    assert engine.metrics.total("tweets_ingested_total") == 400


def test_apply_sets_the_next_chunks_tier_and_size(engine, small_stream):
    controller = OverloadController(
        batch_deadline_s=60.0,
        batch_size=300,
        n_partitions=3 if engine.kind == "microbatch" else None,
    )
    controller.tier = DegradeTier.NO_POS
    engine.process_chunk(small_stream[:200])
    assert engine.pipeline.degrade_tier == DegradeTier.FULL
    engine.apply(controller)
    engine.process_chunk(small_stream[200:500])
    assert engine.pipeline.degrade_tier == DegradeTier.NO_POS
    if engine.kind == "microbatch":
        assert (engine.batch_size, engine.n_partitions) == (300, 3)
        assert engine.batches[-1].n_processed == 300
        assert engine.batches[-1].degrade_tier == DegradeTier.NO_POS


def test_state_round_trips_through_engine_to_dict(engine, small_stream):
    engine.process_chunk(small_stream[:600])
    payload = json.loads(json.dumps(engine_to_dict(engine)))
    restored = engine_from_dict(payload)
    try:
        assert restored.kind == engine.kind
        assert model_to_dict(restored.model) == model_to_dict(engine.model)
    finally:
        restored.close()

"""Supervisor checkpoints written by earlier code still resume and serve.

``golden_checkpoint_sequential.json`` and
``golden_checkpoint_microbatch.json`` are supervisor checkpoints cut
mid-stream (cursor 200 of a 400-tweet stream, chunks of 50). Both keep
the engine's detector state in the nested layout: an ``engine`` section
holding one :class:`~repro.core.pipeline.AggressionDetectionPipeline`
payload under ``pipeline``. The sequential file dates from the commit
that introduced that layout; the micro-batch file was rewritten in it
when the flat micro-batch layout stopped being read. Resuming either
must finish exactly where an uninterrupted run of today's code
finishes — final metrics, alert list and model digest — and either must
still extract into a snapshot the serving store verifies. A flat
section is refused by name, both on resume (which does not fall back to
an older file) and on snapshot extraction.

The files are contracts with the code that wrote them, so do not
regenerate them against the code under test. They were written by
``PYTHONPATH=src:. python tests/reliability/test_golden_checkpoints.py``
at the earlier commit.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import List

import pytest

from repro.core.checkpoint import RetiredLayoutError, engine_from_dict
from repro.core.config import PipelineConfig
from repro.data.loader import strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.replay import model_state_digest
from repro.engine.sequential import SequentialEngine
from repro.reliability.supervisor import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_HISTORY_PREFIX,
    StreamSupervisor,
)
from repro.serve.model import ServingModel
from repro.serve.snapshot import (
    SnapshotIntegrityError,
    SnapshotStore,
    payload_from_checkpoint,
)
from repro.streamml.serialize import SerializationError

ENGINE_KINDS = ("sequential", "microbatch")
N_TWEETS = 400
CHUNK = 50
#: The crash lands after the checkpoint at chunk 4 (cursor 200).
CRASH_AT = 230


def golden_path(kind: str) -> Path:
    return Path(__file__).with_name(f"golden_checkpoint_{kind}.json")


def _build(kind: str):
    config = PipelineConfig(n_classes=2, sample_capacity=16)
    if kind == "microbatch":
        return MicroBatchEngine(config, n_partitions=2, batch_size=CHUNK)
    return SequentialEngine(config)


def _stream() -> List[Tweet]:
    """Every third tweet unlabeled, so training and alerting both run
    on either side of the cut."""
    tweets = AbusiveDatasetGenerator(n_tweets=N_TWEETS, seed=11).generate_list()
    return [
        next(strip_labels([tweet])) if index % 3 == 2 else tweet
        for index, tweet in enumerate(tweets)
    ]


class _Crash(Exception):
    """Simulated driver death mid-stream."""


def _crashing(tweets: List[Tweet]):
    for index, tweet in enumerate(tweets):
        if index >= CRASH_AT:
            raise _Crash(f"driver died at tweet {index}")
        yield tweet


def write_goldens() -> None:
    """Run each engine into a crash and keep its last checkpoint."""
    import tempfile

    for kind in ENGINE_KINDS:
        with tempfile.TemporaryDirectory() as scratch:
            supervisor = StreamSupervisor(
                _build(kind),
                checkpoint_dir=scratch,
                checkpoint_every=2,
                chunk_size=CHUNK,
            )
            try:
                supervisor.run(_crashing(_stream()))
            except _Crash:
                pass
            shutil.copyfile(
                Path(scratch) / CHECKPOINT_FILENAME, golden_path(kind)
            )


def test_goldens_are_cut_mid_stream_in_the_nested_layout():
    sequential, microbatch = (
        json.loads(golden_path(kind).read_text()) for kind in ENGINE_KINDS
    )
    assert sequential["cursor"] == microbatch["cursor"] == 200
    for golden, kind in zip((sequential, microbatch), ENGINE_KINDS):
        assert golden["engine"]["engine"] == kind
        assert "config" in golden["engine"]["pipeline"]
        assert "config" not in golden["engine"]


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_golden_resumes_to_the_uninterrupted_end_state(kind, tmp_path):
    baseline_engine = _build(kind)
    baseline = StreamSupervisor(baseline_engine, chunk_size=CHUNK).run(
        _stream()
    )

    shutil.copyfile(golden_path(kind), tmp_path / CHECKPOINT_FILENAME)
    resumed = StreamSupervisor.resume(tmp_path, checkpoint_every=2)
    rerun = resumed.run(_stream())

    assert rerun.result.metrics == baseline.result.metrics
    assert rerun.health.n_processed == baseline.health.n_processed == N_TWEETS
    alerts = resumed.engine.pipeline.alert_manager.alerts
    assert alerts
    assert alerts == baseline_engine.pipeline.alert_manager.alerts
    assert model_state_digest(resumed.engine.model) == model_state_digest(
        baseline_engine.model
    )


@pytest.mark.parametrize("kind", ENGINE_KINDS)
def test_golden_still_serves(kind, tmp_path):
    payload = payload_from_checkpoint(golden_path(kind))
    store = SnapshotStore(tmp_path / "snaps")
    info = store.publish(payload)
    model = ServingModel(store.load_verified(info.version)[1])
    section = json.loads(golden_path(kind).read_text())["engine"]
    restored = engine_from_dict(section)
    assert model_state_digest(model.model) == model_state_digest(
        restored.model
    )
    assert model.classify(_stream()[0])["predicted"]


def test_flat_microbatch_layout_is_refused_by_name(tmp_path):
    checkpoint = json.loads(golden_path("microbatch").read_text())
    section = checkpoint["engine"]
    # The flat layout: the pipeline's sections at the engine's top level.
    flat = {key: value for key, value in section.items() if key != "pipeline"}
    flat.update(section["pipeline"])
    checkpoint["engine"] = flat
    path = tmp_path / CHECKPOINT_FILENAME
    path.write_text(json.dumps(checkpoint))
    # A verifiable history file beside it: a retired layout is not
    # corruption, so resume must not fall back to it.
    shutil.copy(
        golden_path("microbatch"),
        tmp_path / f"{CHECKPOINT_HISTORY_PREFIX}00000004.json",
    )
    with pytest.raises(SerializationError) as excinfo:
        StreamSupervisor.resume(tmp_path)
    assert isinstance(excinfo.value, RetiredLayoutError)
    with pytest.raises(SnapshotIntegrityError) as snapshot_excinfo:
        payload_from_checkpoint(path)
    for error in (excinfo.value, snapshot_excinfo.value):
        assert "flat micro-batch checkpoint layout" in str(error)
        assert "no longer read" in str(error)
        assert "KeyError" not in str(error)


if __name__ == "__main__":
    write_goldens()

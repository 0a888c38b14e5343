"""A JSONL run ends in the same state whoever parses the lines.

``golden_jsonl_parity.json`` records, per model and per engine/runner,
what a run over :func:`~repro.data.loader.read_jsonl` leaves behind:
the sha256 of :func:`~repro.core.checkpoint.pipeline_to_dict`, the
alert list (hashed, with the Python type of each confidence), the
sampler heap (keys, tiebreaks, hashed instances and the Python types of
each entry's vector and probabilities) and the final-model digest. The
file was written by the code from before micro-batch partitions parsed
their own lines and shipped their unlabeled rows back as columns; every
run of today's code must match it exactly.

Regenerate only from the commit whose results are the contract:
``PYTHONPATH=src python tests/engine/test_jsonl_parity.py``.

The placement tests pin where lines are parsed: the micro-batch driver
parses none (its partitions do), the sequential engine each once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import pytest

from repro.core.checkpoint import pipeline_to_dict
from repro.core.config import PipelineConfig
from repro.data.loader import read_jsonl, strip_labels, write_jsonl
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.replay import model_state_digest
from repro.engine.sequential import SequentialEngine

GOLDEN = Path(__file__).with_name("golden_jsonl_parity.json")
MODELS = ("ht", "arf", "slr", "gnb", "majority")
#: ``sequential`` plus the micro-batch engine on each runner kind.
RUNS = ("sequential", "serial", "processes")
N_TWEETS = 900


def write_stream(path: Path) -> None:
    """Two of every three tweets unlabeled, so alerting and sampling
    see most of the stream."""
    tweets = AbusiveDatasetGenerator(
        n_tweets=N_TWEETS, seed=23
    ).generate_list()
    write_jsonl(
        (
            tweet if index % 3 == 0 else next(strip_labels([tweet]))
            for index, tweet in enumerate(tweets)
        ),
        path,
    )


def _type_names(values: Any) -> List[str]:
    return sorted({type(value).__name__ for value in values})


def _sha(value: Any) -> str:
    payload = json.dumps(value, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def run_summary(model: str, run: str, path: Path) -> Dict[str, Any]:
    config = PipelineConfig(n_classes=3, model=model, sample_capacity=24)
    if run == "sequential":
        engine: Any = SequentialEngine(config)
    else:
        engine = MicroBatchEngine(
            config, n_partitions=2, batch_size=300, runner=run, n_workers=2
        )
    try:
        engine.run(read_jsonl(path))
    finally:
        engine.close()
    pipeline = engine.pipeline
    alerts = pipeline.alert_manager.alerts
    heap = sorted(pipeline.sampler._heap, key=lambda entry: entry[1])
    return {
        "state_sha": _sha(pipeline_to_dict(pipeline)),
        "digest": model_state_digest(pipeline.model),
        "n_alerts": len(alerts),
        "alerts_sha": _sha(
            [
                [
                    alert.tweet_id, alert.user_id, alert.predicted_class,
                    alert.confidence, alert.timestamp, alert.action.value,
                ]
                for alert in alerts
            ]
        ),
        "alert_confidence_types": _type_names(a.confidence for a in alerts),
        # One row per reservoir entry; the floats are hashed to keep
        # the file small, their Python types are spelled out.
        "heap": [
            [
                key, tiebreak, item.instance.tweet_id, item.predicted,
                _sha([item.proba, item.instance.x, item.instance.timestamp]),
                type(item.proba).__name__, _type_names(item.proba),
                type(item.instance.x).__name__, _type_names(item.instance.x),
            ]
            for key, tiebreak, item in heap
        ],
        "n_offered": pipeline.sampler.n_offered,
    }


def write_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "stream.jsonl"
        write_stream(path)
        golden = {
            f"{model}/{run}": run_summary(model, run, path)
            for model in MODELS
            for run in RUNS
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def stream_path(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("parity") / "stream.jsonl"
    write_stream(path)
    return path


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("model", MODELS)
def test_jsonl_run_matches_the_golden(model, run, stream_path, golden):
    expected = golden[f"{model}/{run}"]
    # Round-trip through JSON so tuples compare as the golden's lists.
    actual = json.loads(json.dumps(run_summary(model, run, stream_path)))
    for key in (
        "digest", "n_alerts", "alerts_sha", "alert_confidence_types",
        "heap", "n_offered", "state_sha",
    ):
        assert actual[key] == expected[key], key


def test_golden_exercises_alerts_and_the_reservoir(golden):
    for model in MODELS:
        summary = golden[f"{model}/processes"]
        assert summary["heap"]
        assert summary["n_offered"] == 600
        if model != "majority":
            assert summary["n_alerts"]


@pytest.fixture()
def from_json_calls(monkeypatch) -> List[int]:
    """Counts ``Tweet.from_json`` calls made in this process."""
    calls: List[int] = []
    original = Tweet.from_json.__func__

    def counting(cls, payload):
        calls.append(1)
        return original(cls, payload)

    monkeypatch.setattr(Tweet, "from_json", classmethod(counting))
    return calls


def test_the_micro_batch_driver_parses_nothing(stream_path, from_json_calls):
    engine = MicroBatchEngine(
        PipelineConfig(n_classes=3), n_partitions=2, batch_size=300,
        runner="processes", n_workers=2,
    )
    try:
        result = engine.run(read_jsonl(stream_path))
    finally:
        engine.close()
    assert result.n_processed == N_TWEETS
    assert from_json_calls == []


def test_the_sequential_engine_parses_each_line_once(
    stream_path, from_json_calls
):
    SequentialEngine(PipelineConfig(n_classes=3)).run(read_jsonl(stream_path))
    assert len(from_json_calls) == N_TWEETS


if __name__ == "__main__":
    write_golden()

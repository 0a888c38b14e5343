"""Malformed JSONL lines are quarantined, never fatal, on every path.

The fixture is written here: clean tweets with CRLF line endings and
blank lines, plus a truncated object, a non-object line (``[1,2,3]``),
a line holding a byte that is not UTF-8, a ``"text": null`` tweet (a
repair, not a failure) and a tweet with an absurd timestamp (parses,
fails validation). Whichever engine and runner parse the lines, the
dead-letter records, the accounting and the null-text count agree.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, List

import pytest

from repro.core.config import PipelineConfig
from repro.data.loader import read_jsonl, strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.runners import PartitionError
from repro.engine.sequential import SequentialEngine
from repro.reliability.deadletter import DeadLetterQueue
from repro.reliability.supervisor import StreamSupervisor

RUNS = ("sequential", "serial", "processes")
N_CLEAN = 120
#: The ids of the tweets the fixture corrupts.
NULL_TEXT_ID = "null-text"
ABSURD_ID = "absurd-timestamp"


def _clean_lines() -> List[bytes]:
    tweets = AbusiveDatasetGenerator(n_tweets=N_CLEAN, seed=31).generate_list()
    mixed = [
        tweet if index % 2 else next(strip_labels([tweet]))
        for index, tweet in enumerate(tweets)
    ]
    return [tweet.to_json_line().encode() for tweet in mixed]


def write_hostile(path: Path) -> List[int]:
    """Write the fixture; returns the line numbers of the bad lines."""
    lines = _clean_lines()
    template = json.loads(lines[0])
    null_text = dict(template, id_str=NULL_TEXT_ID, text=None)
    absurd = dict(template, id_str=ABSURD_ID, created_at=1.0e18)
    hostile = [
        lines[5][: len(lines[5]) // 2],  # truncated object
        b"[1,2,3]",
        b'{"id_str":"bad-byte","text":"caf\xff","created_at":1.0}',
    ]
    out: List[bytes] = []
    bad_linenos: List[int] = []
    for index, line in enumerate(lines):
        if index % 40 == 7:
            out.append(b"")  # blank line
        if index in (30, 60, 90):
            out.append(hostile[index // 30 - 1])
            bad_linenos.append(len(out))
        if index == 45:
            out.append(json.dumps(null_text).encode())
        if index == 75:
            out.append(json.dumps(absurd).encode())
        out.append(line)
    path.write_bytes(b"\r\n".join(out) + b"\r\n\r\n")
    return bad_linenos


N_RECORDS = N_CLEAN + 5


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    path = tmp_path_factory.mktemp("hostile") / "hostile.jsonl"
    return path, write_hostile(path)


def _engine(run: str, **options: Any):
    config = PipelineConfig(n_classes=2)
    if run == "sequential":
        return SequentialEngine(config, **options)
    return MicroBatchEngine(
        config, n_partitions=2, batch_size=40, runner=run, n_workers=2,
        **options,
    )


def _records(queue: DeadLetterQueue) -> Counter:
    return Counter((r.stage, r.tweet_id) for r in queue.records)


def test_reader_yields_every_non_blank_line(hostile):
    path, bad = hostile
    records = list(read_jsonl(path))
    assert len(records) == N_RECORDS
    assert all(not r.line.endswith("\r") for r in records)
    assert [r.lineno for r in records if r.lineno in bad] == bad


@pytest.mark.parametrize("run", RUNS)
def test_engines_quarantine_unparseable_lines_at_parse(run, hostile):
    path, bad = hostile
    queue = DeadLetterQueue()
    engine = _engine(run, dead_letters=queue)
    try:
        engine.run(read_jsonl(path))
    finally:
        engine.close()
    assert _records(queue) == Counter(
        {("parse", None): 3, ("validate", ABSURD_ID): 1}
    )
    errors = [r.error for r in queue.records if r.stage == "parse"]
    assert [n for n in bad for e in errors if f"JSONL line {n}:" in e] == bad
    registry = engine.metrics
    assert registry.total("tweets_processed_total") + registry.total(
        "tweets_quarantined_total"
    ) == registry.total("tweets_ingested_total") == N_RECORDS
    assert registry.total("tweets_processed_total") == N_RECORDS - 4
    assert registry.total("ingest_null_text_total") == 1


@pytest.mark.parametrize("run", RUNS)
def test_supervised_run_quarantines_at_ingest_parse(run, hostile):
    path, _ = hostile
    engine = _engine(run)
    supervisor = StreamSupervisor(engine, max_poison_rate=0.05)
    try:
        outcome = supervisor.run(
            read_jsonl(path, metrics=supervisor.metrics)
        )
    finally:
        engine.close()
    assert _records(supervisor.dead_letters) == Counter(
        {("ingest-parse", None): 3, ("ingest-validate", ABSURD_ID): 1}
    )
    health = outcome.health
    assert health.n_quarantined == 4
    assert health.n_processed + health.n_quarantined == N_RECORDS
    assert supervisor.metrics.total("ingest_reads_total") == N_RECORDS
    assert supervisor.metrics.total("ingest_null_text_total") == 1


@pytest.mark.parametrize("run", RUNS)
def test_without_a_dead_letter_queue_the_error_names_the_line(run, hostile):
    path, bad = hostile
    engine = _engine(run)
    error = PartitionError if run != "sequential" else ValueError
    try:
        with pytest.raises(error, match=f"JSONL line {bad[0]}:"):
            engine.run(read_jsonl(path))
    finally:
        engine.close()

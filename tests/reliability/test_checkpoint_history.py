"""Checkpoint history: bounded retention and corrupt-file fallback."""

from __future__ import annotations

import json

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.sequential import SequentialEngine
from repro.reliability.supervisor import (
    CHECKPOINT_HISTORY_PREFIX,
    StreamSupervisor,
)
from repro.streamml.serialize import SerializationError


def _tweets(n=1000, seed=31):
    return AbusiveDatasetGenerator(n_tweets=n, seed=seed).generate_list()


def _history(directory):
    return sorted(
        p.name
        for p in directory.glob(f"{CHECKPOINT_HISTORY_PREFIX}*.json")
    )


class TestRetention:
    def test_history_bounded_to_keep_checkpoints(self, tmp_path):
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=100,
            keep_checkpoints=3,
        )
        supervisor.run(_tweets(1000))
        names = _history(tmp_path)
        assert len(names) == 3
        # The newest chunk stamps survive (chunk 10 twice: periodic
        # write + final write share the stamp, so 8, 9, 10 remain).
        assert names == [
            "checkpoint-00000008.json",
            "checkpoint-00000009.json",
            "checkpoint-00000010.json",
        ]
        assert (tmp_path / "checkpoint.json").exists()

    def test_keep_checkpoints_validation(self):
        with pytest.raises(ValueError, match="keep_checkpoints"):
            StreamSupervisor(
                SequentialEngine(), keep_checkpoints=0
            )


class TestResumeOptions:
    def test_resume_keeps_snapshot_store_and_retention(self, tmp_path):
        from repro.serve.snapshot import SnapshotStore

        tweets = _tweets(600)
        StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=1,
            chunk_size=100,
        ).run(tweets[:300])
        store = SnapshotStore(tmp_path / "snaps")
        resumed = StreamSupervisor.resume(
            tmp_path / "ckpt", snapshot_store=store, keep_checkpoints=1
        )
        assert resumed.snapshot_store is store
        resumed.run(tweets)
        assert store.latest_version() is not None
        assert len(_history(tmp_path / "ckpt")) == 1

    def test_unknown_and_restored_options_are_refused(self, tmp_path):
        StreamSupervisor(
            SequentialEngine(), checkpoint_dir=tmp_path, chunk_size=100
        ).run(_tweets(200))
        for option in ("validate", "chunk_size"):
            with pytest.raises(TypeError, match=option):
                StreamSupervisor.resume(tmp_path, **{option: 50})
        with pytest.raises(TypeError, match="validate"):
            StreamSupervisor(SequentialEngine(), validate=False)


class TestCorruptFallback:
    def _run(self, tmp_path, keep=3):
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
            chunk_size=100,
            keep_checkpoints=keep,
        )
        supervisor.run(_tweets(600))
        return supervisor

    def test_truncated_rolling_file_falls_back_to_history(self, tmp_path):
        # Spy on the module logger directly: CLI tests may have set
        # propagate=False on the repro tree, which blinds caplog.
        from unittest import mock

        from repro.reliability import supervisor as supervisor_mod

        self._run(tmp_path)
        rolling = tmp_path / "checkpoint.json"
        rolling.write_text(rolling.read_text()[:200])
        with mock.patch.object(
            supervisor_mod.logger, "warning"
        ) as warning:
            resumed = StreamSupervisor.resume(tmp_path)
        assert resumed._cursor == 600
        assert (
            resumed.metrics.counter("checkpoint_corrupt_total").value
            == 1.0
        )
        assert warning.call_count == 1
        assert "corrupt checkpoint" in warning.call_args[0][0]

    def test_falls_back_over_multiple_corrupt_files(self, tmp_path):
        self._run(tmp_path)
        (tmp_path / "checkpoint.json").write_text("{")
        names = _history(tmp_path)
        (tmp_path / names[-1]).write_text("also broken")
        resumed = StreamSupervisor.resume(tmp_path)
        # Landed on an older-but-valid cut: strictly earlier progress.
        assert 0 < resumed._cursor < 600
        assert (
            resumed.metrics.counter("checkpoint_corrupt_total").value
            == 2.0
        )

    def test_fallback_resume_still_completes_the_stream(self, tmp_path):
        tweets = _tweets(600)
        baseline = StreamSupervisor(
            SequentialEngine(), chunk_size=100
        ).run(tweets)
        self._run(tmp_path)
        (tmp_path / "checkpoint.json").write_bytes(b"\x00" * 64)
        resumed = StreamSupervisor.resume(tmp_path)
        final = resumed.run(tweets)
        assert final.result.metrics == baseline.result.metrics

    def test_all_corrupt_raises_serialization_error(self, tmp_path):
        self._run(tmp_path)
        for path in tmp_path.glob("*.json"):
            path.write_text("garbage")
        with pytest.raises(
            SerializationError, match="no verifiable checkpoint"
        ):
            StreamSupervisor.resume(tmp_path)

    def test_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            StreamSupervisor.resume(tmp_path / "never-written")

    def test_corrupt_event_reaches_telemetry(self, tmp_path):
        events = []

        class Sink:
            def event(self, name, **fields):
                events.append((name, fields))

            def snapshot(self, *args, **kwargs):
                pass

        self._run(tmp_path)
        (tmp_path / "checkpoint.json").write_text("~")
        StreamSupervisor.resume(tmp_path, telemetry=Sink())
        corrupt = [e for e in events if e[0] == "checkpoint_corrupt"]
        assert len(corrupt) == 1
        assert corrupt[0][1]["skipped"] == ["checkpoint.json"]

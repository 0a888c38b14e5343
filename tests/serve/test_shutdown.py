"""Graceful shutdown, end to end: real processes, real SIGTERM.

These tests exercise the signal path exactly as an operator (or a
container runtime) would: spawn ``python -m repro ...``, deliver
SIGTERM, and assert the process drains, persists its state, and exits
0 — with no shared-memory segments left behind.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.data.loader import write_jsonl
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.serve.snapshot import SnapshotStore

REPO_ROOT = Path(__file__).resolve().parents[2]


def _spawn(args, log_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    handle = open(log_path, "w", encoding="utf-8")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=handle, stderr=subprocess.STDOUT,
        env=env, cwd=REPO_ROOT,
    )


def _wait_for(predicate, timeout_s=15.0, interval_s=0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


def _served_port(log_path):
    try:
        text = Path(log_path).read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if "serving on " in line:
            return int(line.rsplit(":", 1)[1].split(" ")[0])
    return None


def _shm_segments():
    shm = Path("/dev/shm")
    if not shm.exists():  # pragma: no cover - platform-dependent
        return set()
    return {p.name for p in shm.glob("psm_*")}


@pytest.fixture(scope="module")
def published_store(tmp_path_factory, trained_payload):
    root = tmp_path_factory.mktemp("store")
    store = SnapshotStore(root)
    store.publish(trained_payload)
    return root


class TestServeSigterm:
    def test_drains_and_exits_zero(self, tmp_path, published_store):
        log = tmp_path / "serve.log"
        shm_before = _shm_segments()
        proc = _spawn(
            ["serve", str(published_store), "--port", "0"], log
        )
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            port = _served_port(log)
            with socket.create_connection(
                ("127.0.0.1", port), timeout=5
            ) as conn:
                conn.sendall(
                    b'{"op":"classify","tweet":{"text":"hello"}}\n'
                )
                line = conn.makefile().readline()
                assert json.loads(line)["status"] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        text = log.read_text(encoding="utf-8")
        assert "drain complete" in text
        assert "0 in flight" in text
        assert _shm_segments() == shm_before

    def test_sigterm_while_unready_exits_zero(self, tmp_path):
        empty_store = tmp_path / "empty"
        log = tmp_path / "serve.log"
        proc = _spawn(["serve", str(empty_store), "--port", "0"], log)
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestServeMetricsOut:
    def test_exit_writes_events_and_exposition(
        self, tmp_path, published_store
    ):
        """``serve --metrics-out FILE``: the swap, the drain snapshot
        and the drain land in FILE, and the exposition in FILE.prom."""
        events_path = tmp_path / "serve-events.jsonl"
        log = tmp_path / "serve.log"
        proc = _spawn(
            ["serve", str(published_store), "--port", "0",
             "--metrics-out", str(events_path)],
            log,
        )
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            with socket.create_connection(
                ("127.0.0.1", _served_port(log)), timeout=5
            ) as conn:
                conn.sendall(
                    b'{"op":"classify","tweet":{"text":"hello"}}\n'
                )
                assert json.loads(conn.makefile().readline())["status"] == 200
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        events = [
            json.loads(line)
            for line in events_path.read_text(encoding="utf-8").splitlines()
        ]
        assert [e["event"] for e in events] == [
            "snapshot_swap", "snapshot", "drain_complete"
        ]
        assert events[-1]["n_requests"] == 1
        counters = {c["name"] for c in events[1]["metrics"]["counters"]}
        assert "requests_total" in counters
        exposition = Path(f"{events_path}.prom").read_text(encoding="utf-8")
        assert "# TYPE repro_requests_total counter" in exposition
        assert "telemetry" in log.read_text(encoding="utf-8")


class TestServeFlightRecorder:
    def test_refused_snapshot_dumps_the_ring(
        self, tmp_path, trained_payload
    ):
        """``serve --flight-recorder DIR``: a published version that
        will not rebuild is refused, and the refusal dumps the ring."""
        root = tmp_path / "store"
        store = SnapshotStore(root)
        store.publish(trained_payload)
        dumps = tmp_path / "flight"
        log = tmp_path / "serve.log"
        proc = _spawn(
            ["serve", str(root), "--port", "0", "--poll-interval", "0.05",
             "--flight-recorder", str(dumps)],
            log,
        )
        try:
            assert _wait_for(lambda: _served_port(log) is not None)
            store.publish(dict(trained_payload, model={"kind": "bogus"}))
            assert _wait_for(lambda: any(dumps.glob("flight-*.jsonl")))
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=20) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        (dump,) = dumps.glob("flight-*.jsonl")
        assert dump.name.endswith("snapshot_rejected.jsonl")
        events = [
            json.loads(line)
            for line in dump.read_text(encoding="utf-8").splitlines()
        ]
        assert any(e.get("event") == "snapshot_rejected" for e in events)
        assert "snapshot v2 refused" in log.read_text(encoding="utf-8")


class TestRunSigterm:
    def test_training_run_drains_checkpoints_and_exits_zero(
        self, tmp_path
    ):
        data = tmp_path / "data.jsonl"
        write_jsonl(
            AbusiveDatasetGenerator(
                n_tweets=4000, seed=5
            ).generate(),
            data,
        )
        ckpt = tmp_path / "ckpt"
        snaps = tmp_path / "snaps"
        log = tmp_path / "run.log"
        shm_before = _shm_segments()
        proc = _spawn(
            [
                "run", str(data),
                "--checkpoint-dir", str(ckpt),
                "--checkpoint-every", "1",
                "--publish-snapshot", str(snaps),
                "--arrival-rate", "800",
            ],
            log,
        )
        try:
            # Let it make some progress, then ask it to stop.
            assert _wait_for(lambda: (ckpt / "checkpoint.json").exists())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        text = log.read_text(encoding="utf-8")
        assert "graceful stop complete" in text
        assert "stopped       : graceful drain" in text
        # The final checkpoint is written and resumable.
        payload = json.loads(
            (ckpt / "checkpoint.json").read_text(encoding="utf-8")
        )
        assert payload["cursor"] > 0
        # A serving snapshot landed in the store.
        assert SnapshotStore(snaps).latest_version() is not None
        assert _shm_segments() == shm_before

    def test_resume_after_graceful_stop_completes_stream(self, tmp_path):
        from repro.engine.sequential import SequentialEngine
        from repro.reliability.supervisor import StreamSupervisor

        tweets = AbusiveDatasetGenerator(
            n_tweets=1200, seed=9
        ).generate_list()
        # Baseline: one uninterrupted run.
        baseline = StreamSupervisor(
            SequentialEngine(), chunk_size=200
        ).run(tweets)
        # Stopped run: drain after the second chunk, then resume.
        supervisor = StreamSupervisor(
            SequentialEngine(),
            checkpoint_dir=tmp_path, chunk_size=200,
        )
        chunks_seen = []
        original = supervisor._process_chunk

        def stop_after_two(chunk):
            original(chunk)
            chunks_seen.append(len(chunk))
            if len(chunks_seen) == 2:
                supervisor.request_stop()

        supervisor._process_chunk = stop_after_two
        partial = supervisor.run(tweets)
        assert partial.stopped
        resumed = StreamSupervisor.resume(tmp_path)
        final = resumed.run(tweets)
        assert not final.stopped
        assert final.result.metrics == baseline.result.metrics

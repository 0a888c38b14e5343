"""Self-test of the perf ledger (``pytest benchmarks/ledger -q``).

Not part of tier-1 (``testpaths = ["tests"]``): it spends about a
minute running the benchmark at ``--smoke`` size.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path

import pytest

LEDGER_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(LEDGER_DIR))

import compare  # noqa: E402
import loadgen  # noqa: E402
import spec  # noqa: E402
from procs import shm_listing  # noqa: E402

TAG_VARIABLE = "LEDGER_SELFTEST_TAG"


# ----------------------------------------------------------------------
# Load generator against a stub server
# ----------------------------------------------------------------------


class StubServer:
    """Answers every JSONL line with a fixed 200; stalls once."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.listener = socket.socket()
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.address = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return
        seen, buf = 0, b""
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
                while b"\n" in buf:
                    _, _, buf = buf.partition(b"\n")
                    seen += 1
                    if seen == self.stall_at:
                        time.sleep(self.stall_s)
                    conn.sendall(b'{"status":200,"predicted":"normal"}\n')

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=2.0)


PAYLOADS = [loadgen.encode_request(loadgen.JSONL, "classify", {"text": "hello"})]


def test_server_stall_reaches_every_request_due_during_it():
    """No coordinated omission: the sender keeps its schedule through a
    50 ms server stall, so every request due while it lasted shows a
    long due-time latency — not just the one the server slept on."""
    server = StubServer(stall_at=100, stall_s=0.05)
    try:
        phase = loadgen.open_loop(
            server.address, loadgen.JSONL, PAYLOADS,
            rate_hz=500.0, duration_s=1.0, seed=7, n_connections=1,
        )
    finally:
        server.close()
    assert all(status == 200 for status in phase.status)
    latency_ms = [(d - t) * 1e3 for d, t in zip(phase.done, phase.due)]
    late_ms = sorted((s - t) * 1e3 for s, t in zip(phase.sent, phase.due))
    # ~25 requests fall due inside a 50 ms stall at 500 Hz; those due
    # in its first 40 ms waited at least 10 ms. (The host stalls on its
    # own too, so look at the run that starts at the injected one.)
    stalled = 99  # the 100th request, counting from 0
    run_length = 0
    while latency_ms[stalled + run_length] >= 10.0:
        run_length += 1
    assert run_length >= 10
    # ... and the generator itself was on time for them.
    assert late_ms[len(late_ms) // 2] < 2.0
    summary = phase.summary({"normal"})
    assert summary["ok"] == summary["sent"] == len(phase.due)
    assert summary["p99_ms"] >= 10.0


def test_sender_stall_is_reported_as_lateness(monkeypatch):
    """When the generator itself is held up, ``late_*`` says so and the
    due-time latency of the requests it sent late includes the wait."""
    calls = {"n": 0}
    real_sleep = loadgen.sleep

    def stalling_sleep(seconds: float) -> None:
        calls["n"] += 1
        real_sleep(seconds + (0.05 if calls["n"] == 100 else 0.0))

    monkeypatch.setattr(loadgen, "sleep", stalling_sleep)
    server = StubServer(stall_at=-1, stall_s=0.0)
    try:
        phase = loadgen.open_loop(
            server.address, loadgen.JSONL, PAYLOADS,
            rate_hz=500.0, duration_s=1.0, seed=7, n_connections=1,
        )
    finally:
        server.close()
    late_ms = [(s - t) * 1e3 for s, t in zip(phase.sent, phase.due)]
    latency_ms = [(d - t) * 1e3 for d, t in zip(phase.done, phase.due)]
    late = [i for i, value in enumerate(late_ms) if value >= 10.0]
    assert len(late) >= 10
    assert all(latency_ms[i] >= late_ms[i] for i in late)
    summary = phase.summary({"normal"})
    assert summary["late_max_ms"] >= 45.0
    assert summary["late_p99_ms"] >= 10.0


# ----------------------------------------------------------------------
# Declared metrics
# ----------------------------------------------------------------------


def test_declared_metrics_are_well_formed():
    benchmark = spec.load_benchmark()
    names = spec.metric_names(benchmark)
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in benchmark["workloads"]]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in benchmark["end_to_end"] + benchmark["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in benchmark["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert [w["name"] for w in benchmark["workloads"]] == list(spec.WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/ledger"]
    setup = [m for m in benchmark["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


# ----------------------------------------------------------------------
# Whole runs at --smoke size
# ----------------------------------------------------------------------


def tagged_processes(tag: str) -> list:
    """Pids (other than ours) whose environment carries ``tag``."""
    needle = f"{TAG_VARIABLE}={tag}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if needle in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


def wait_until_gone(tag: str, timeout_s: float = 15.0) -> list:
    deadline = time.monotonic() + timeout_s
    while True:
        alive = tagged_processes(tag)
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


def ledger_command(*extra: str) -> list:
    return [sys.executable, str(LEDGER_DIR / "run.py"), "--smoke", *extra]


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    traces = out.with_name("spans.json")
    tag = uuid.uuid4().hex
    shm_before = shm_listing()
    completed = subprocess.run(
        ledger_command("--seed", "11", "--out", str(out), "--trace-out", str(traces)),
        env=dict(os.environ, **{TAG_VARIABLE: tag}),
        capture_output=True, text=True, timeout=300,
    )
    return {
        "completed": completed, "out": out, "traces": traces, "tag": tag,
        "shm_before": shm_before,
    }


def test_smoke_run_passes_its_own_checks(smoke_run):
    completed = smoke_run["completed"]
    assert completed.returncode == 0, completed.stdout[-3000:] + completed.stderr[-3000:]
    document = json.loads(smoke_run["out"].read_text())
    assert document["smoke"] is True and document["ok"] is True
    assert document["hygiene"]["leaked_processes"] == 0
    assert document["hygiene"]["leaked_shm_segments"] == 0
    assert "leaked_processes 0" in completed.stdout
    assert "leaked_shm_segments 0" in completed.stdout
    for entry in document["workloads"].values():
        assert all(entry["checks"].values()), entry["checks"]
        assert entry["failed"] == 0
    spans = json.loads(smoke_run["traces"].read_text())
    assert {log["workload"] for log in spans} == set(spec.WORKLOADS)
    assert all(log["spans"] for log in spans)


def test_emitted_metric_names_equal_the_declared_set(smoke_run):
    benchmark = spec.load_benchmark()
    document = json.loads(smoke_run["out"].read_text())
    end_to_end = set(spec.metric_units(benchmark, "end_to_end"))
    per_layer = set(spec.metric_units(benchmark, "per_layer"))
    seen_layers = set()
    for workload in spec.WORKLOADS:
        entry = document["workloads"][workload]
        assert set(entry["end_to_end"]) == end_to_end, workload
        seen_layers |= set(entry["per_layer"])
        units = spec.metric_units(benchmark, "per_layer")
        for name, cell in entry["per_layer"].items():
            assert cell["unit"] == units[name]
    assert seen_layers == per_layer


def test_nothing_survives_a_smoke_run(smoke_run):
    assert wait_until_gone(smoke_run["tag"]) == []
    assert shm_listing() - smoke_run["shm_before"] == set()
    assert not spec.WORK_ROOT.exists() or not any(spec.WORK_ROOT.iterdir())


def test_contract_mode_prints_one_result_object():
    benchmark = spec.load_benchmark()
    completed = subprocess.run(
        ledger_command("--workload", "serve_jsonl", "--seed", "5", "--trace", "1"),
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.metric_units(benchmark, "per_layer"))


def test_nothing_survives_a_run_killed_midway():
    tag = uuid.uuid4().hex
    shm_before = shm_listing()
    proc = subprocess.Popen(
        ledger_command("--seed", "12"),
        env=dict(os.environ, **{TAG_VARIABLE: tag}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        # Long enough to be inside a workload child (pool or server up).
        deadline = time.monotonic() + 20.0
        while len(tagged_processes(tag)) < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(tagged_processes(tag)) >= 3, "run never got going"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert wait_until_gone(tag) == []
    assert shm_listing() - shm_before == set()


def test_compare_agrees_with_itself_and_refuses_smoke_against_full(smoke_run, tmp_path, capsys):
    smoke_path = str(smoke_run["out"])
    assert compare.main([smoke_path, smoke_path]) == 0
    printed = capsys.readouterr().out
    assert "worse" not in printed.split("summary:")[0].replace("worse by", "")
    document = json.loads(smoke_run["out"].read_text())
    document["smoke"] = False
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps(document))
    assert compare.main([smoke_path, str(full_path)]) == 2

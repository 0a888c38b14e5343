"""Flight recorder: bounded ring, incident dumps, auto-dump naming."""

from __future__ import annotations

import json

import pytest

from repro.obs.recorder import FlightRecorder


class TestRing:
    def test_bounded_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.event("tick", n=i)
        assert len(recorder) == 3
        assert [e["n"] for e in list(recorder._ring)] == [2, 3, 4]
        # Sequence numbers keep counting across evictions.
        assert [e["seq"] for e in list(recorder._ring)] == [2, 3, 4]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_sink_compatible_event_signature(self):
        recorder = FlightRecorder()
        recorder.event("slo_alert", slo="shed_fraction", state="firing")
        (entry,) = list(recorder._ring)
        assert entry["event"] == "slo_alert"
        assert entry["slo"] == "shed_fraction"


class TestDump:
    def test_dump_writes_header_plus_events(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        for i in range(3):
            recorder.event("tick", n=i)
        path = tmp_path / "out.jsonl"
        size = recorder.dump(path, reason="test")
        assert size == path.stat().st_size > 0
        lines = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert lines[0]["event"] == "flight_dump"
        assert lines[0]["reason"] == "test"
        assert lines[0]["n_events"] == 3
        assert [e["n"] for e in lines[1:]] == [0, 1, 2]
        # The ring survives the dump: a later incident keeps history.
        assert len(recorder) == 3
        assert recorder.n_dumps == 1

    def test_auto_dump_names_never_collide(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path)
        recorder.event("tick")
        first = recorder.auto_dump("quarantine")
        recorder.event("tock")
        second = recorder.auto_dump("quarantine")
        assert first is not None and second is not None
        assert first != second
        assert first.name == "flight-0000-quarantine.jsonl"
        assert second.name == "flight-0001-quarantine.jsonl"

    def test_auto_dump_sanitizes_reason(self, tmp_path):
        recorder = FlightRecorder(dump_dir=tmp_path)
        recorder.event("tick")
        path = recorder.auto_dump("crash: worker/3 died")
        assert path is not None
        assert "/" not in path.name[len("flight-0000-"):]
        assert path.exists()

    def test_auto_dump_noop_without_dir_or_events(self, tmp_path):
        assert FlightRecorder().auto_dump("crash") is None
        empty = FlightRecorder(dump_dir=tmp_path)
        assert empty.auto_dump("crash") is None
        assert list(tmp_path.iterdir()) == []

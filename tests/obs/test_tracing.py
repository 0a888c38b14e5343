"""Span nesting and the registry-backed stage-seconds view."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    SpanRecord,
    Tracer,
    WorkerTelemetry,
    span_tree,
    stage_seconds_by_stage,
)


class TestSpans:
    def test_span_records_duration_into_registry(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, labels={"engine": "test"})
        with tracer.span("work") as span:
            pass
        assert span.duration is not None and span.duration >= 0.0
        hist = registry.histogram(
            "stage_seconds", engine="test", stage="work"
        )
        assert hist.count == 1
        assert hist.sum == pytest.approx(span.duration)

    def test_nesting_builds_paths_and_stack(self):
        tracer = Tracer(MetricsRegistry())
        assert tracer.current is None
        with tracer.span("batch") as outer:
            assert tracer.current is outer
            with tracer.span("merge") as inner:
                assert tracer.current is inner
                assert inner.parent is outer
                assert inner.name == "merge"
            assert tracer.current is outer
        assert tracer.current is None
        assert outer.parent is None and outer.name == "batch"

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("run") as run:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent is run and a.name == "a"
        assert b.parent is run and b.name == "b"

    def test_duration_recorded_even_when_stage_raises(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        with pytest.raises(RuntimeError):
            with tracer.span("explodes"):
                raise RuntimeError("boom")
        assert tracer.current is None
        assert registry.histogram("stage_seconds", stage="explodes").count == 1

    def test_per_span_labels_override_tracer_labels(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, labels={"engine": "a"})
        with tracer.span("s", engine="b"):
            pass
        assert registry.histogram(
            "stage_seconds", engine="b", stage="s"
        ).count == 1


class TestCapture:
    def test_capture_records_finished_spans_and_drain_clears(self):
        tracer = Tracer(MetricsRegistry(), capture=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        records = tracer.drain()
        # Records appear in completion order; ids in creation order.
        assert [r.name for r in records] == ["inner", "outer"]
        assert [r.span_id for r in records] == [2, 1]
        assert records[0].parent_id == 1
        assert records[1].parent_id is None
        assert all(r.duration_s >= 0.0 for r in records)
        assert tracer.drain() == []

    def test_span_ids_are_deterministic_per_tracer(self):
        def run():
            tracer = Tracer(MetricsRegistry(), capture=True)
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("c"):
                pass
            return [
                (r.span_id, r.parent_id, r.name) for r in tracer.drain()
            ]

        assert run() == run()

    def test_stack_and_capture_survive_raising_span_body(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, capture=True)
        with pytest.raises(RuntimeError):
            with tracer.span("root"):
                with tracer.span("explodes"):
                    raise RuntimeError("boom")
        assert tracer.current is None
        records = tracer.drain()
        # Both spans still closed, recorded, and booked into the
        # histogram family — a crash never loses the trace.
        assert sorted(r.name for r in records) == ["explodes", "root"]
        assert registry.histogram("stage_seconds", stage="explodes").count == 1

    def test_no_capture_keeps_records_empty(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.span("work"):
            pass
        assert tracer.records == []


def _record(span_id, parent_id, name, start=0.0, duration=1.0):
    return SpanRecord(
        span_id=span_id, parent_id=parent_id, name=name,
        start_s=start, duration_s=duration,
    )


class TestSpanTree:
    def test_nests_children_under_parents_ordered_by_id(self):
        # Shuffled input: the tree is ordered by span_id regardless.
        tree = span_tree(
            [
                _record(3, 1, "late"),
                _record(1, None, "root"),
                _record(2, 1, "early"),
            ]
        )
        assert len(tree) == 1
        assert tree[0]["name"] == "root"
        assert [c["name"] for c in tree[0]["children"]] == ["early", "late"]

    def test_orphans_become_roots(self):
        # Parent id 99 belongs to another process: its child must not
        # vanish from the stitched trace.
        tree = span_tree([_record(1, None, "a"), _record(2, 99, "orphan")])
        assert [node["name"] for node in tree] == ["a", "orphan"]

    def test_empty_input_yields_empty_tree(self):
        assert span_tree([]) == []


class TestWorkerTelemetry:
    def test_tree_view(self):
        telemetry = WorkerTelemetry(
            spans=[
                _record(1, None, "partition", duration=3.0),
                _record(2, 1, "extract", duration=1.0),
                _record(3, 1, "extract", duration=0.5),
            ],
            pid=1234,
            wall_s=3.0,
        )
        (root,) = telemetry.tree()
        assert root["name"] == "partition"
        assert len(root["children"]) == 2


class TestStageSecondsByStage:
    def test_groups_sums_by_stage_label(self):
        registry = MetricsRegistry()
        registry.histogram(
            "stage_seconds", engine="mb", stage="merge"
        ).observe(1.0)
        registry.histogram(
            "stage_seconds", engine="mb", stage="merge"
        ).observe(2.0)
        registry.histogram(
            "stage_seconds", engine="mb", stage="drain"
        ).observe(4.0)
        registry.histogram(
            "stage_seconds", engine="seq", stage="merge"
        ).observe(8.0)
        assert stage_seconds_by_stage(registry, engine="mb") == {
            "merge": 3.0, "drain": 4.0
        }
        assert stage_seconds_by_stage(registry) == {"merge": 11.0, "drain": 4.0}

    def test_metric_family_filter(self):
        registry = MetricsRegistry()
        registry.histogram(
            "tweet_stage_seconds", stage="extract"
        ).observe(0.5)
        registry.histogram("stage_seconds", stage="run").observe(1.0)
        per_tweet = stage_seconds_by_stage(
            registry, metric="tweet_stage_seconds"
        )
        assert per_tweet == {"extract": 0.5}

    def test_empty_registry_yields_empty_mapping(self):
        assert stage_seconds_by_stage(MetricsRegistry()) == {}

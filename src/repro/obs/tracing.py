"""Lightweight stage spans over the metrics registry.

Replaces the scattered ``time.perf_counter()`` arithmetic in the
engines and the supervisor: a :class:`Span` is a context manager that
measures one stage and emits its duration into a registry histogram
(``stage_seconds{stage=..., **tracer labels}``), so per-stage latency
distributions (p50/p95/p99) and exact per-stage second totals come from
one bookkeeping path. :class:`repro.engine.microbatch.StageTimings` is
a *view* over this span data, not a parallel accumulator.

Spans nest: the tracer keeps a stack, each span knows its parent and
its ``path`` (``"batch/partition_execute"``), and nothing here is
thread-shared — partition tasks build their own registry + tracer and
ship a snapshot back to the driver.

Cross-process tracing: every span carries a process-local ``span_id``
(monotonic per tracer, so ids are deterministic for a deterministic
code path), and a tracer opened with ``capture=True`` additionally
keeps a flat :class:`SpanRecord` per finished span. Worker-side
tracers bundle their records into a :class:`WorkerTelemetry` that
rides back to the driver inside the partition output, where
:func:`span_tree` nests the flat records back into a tree and the
engine stitches the per-partition subtrees under its own
``partition_execute`` span — one trace per micro-batch, speculative
winners and retries annotated by the driver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import DEFAULT_QUANTILES, MetricsRegistry

#: Metric family spans emit into by default.
STAGE_SECONDS = "stage_seconds"

#: Metric family worker-side partition spans emit into — kept separate
#: from the driver's ``stage_seconds`` so driver-observed and
#: worker-observed stage costs never alias (the worker snapshots fold
#: into the same driver registry).
WORKER_STAGE_SECONDS = "worker_stage_seconds"


@dataclass
class SpanRecord:
    """One finished span, flattened for cross-process shipping.

    ``span_id``/``parent_id`` encode the tree (ids are tracer-local and
    assigned at span creation, so a deterministic code path yields a
    deterministic tree); ``start_s`` is the offset from the tracer's
    epoch, which orders siblings without any cross-process clock
    agreement.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    duration_s: float
    labels: Dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly flat form (flight recorder, trace dumps)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "labels": dict(self.labels),
        }


@dataclass
class WorkerTelemetry:
    """A partition task's captured spans, shipped back to the driver.

    Deliberately tiny: a handful of :class:`SpanRecord` (one per
    partition stage) plus the worker's pid and the task's wall time.
    Metric *deltas* travel separately on the partition output's
    registry snapshot; this is only the trace structure. Speculative
    losers never produce one of these — the deadline runner discards a
    losing attempt's entire result, telemetry included, exactly once.
    """

    spans: List[SpanRecord] = field(default_factory=list)
    pid: int = 0
    wall_s: float = 0.0

    def tree(self) -> List[Dict[str, Any]]:
        """The captured spans nested as a tree (see :func:`span_tree`)."""
        return span_tree(self.spans)


def span_tree(records: Iterable[SpanRecord]) -> List[Dict[str, Any]]:
    """Nest flat span records into parent→children dicts.

    Children (and roots) are ordered by ``span_id`` — creation order —
    so the same execution always renders the same tree. Records whose
    parent is missing (e.g. the parent belongs to another process)
    become roots.
    """
    nodes: Dict[int, Dict[str, Any]] = {}
    ordered: List[SpanRecord] = sorted(records, key=lambda r: r.span_id)
    for record in ordered:
        node = record.as_dict()
        node["children"] = []
        nodes[record.span_id] = node
    roots: List[Dict[str, Any]] = []
    for record in ordered:
        node = nodes[record.span_id]
        parent = (
            nodes.get(record.parent_id)
            if record.parent_id is not None
            else None
        )
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    return roots


class Span:
    """One measured stage; use as a context manager.

    The duration is recorded on exit into the tracer's histogram family
    and exposed as :attr:`duration` for callers that also want the raw
    number (the micro-batch engine builds its per-batch
    ``StageTimings`` from these).
    """

    __slots__ = ("tracer", "name", "labels", "parent",
                 "span_id", "started", "duration")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        labels: Dict[str, str],
        parent: Optional["Span"],
        span_id: int = 0,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.labels = labels
        self.parent = parent
        self.span_id = span_id
        self.started: Optional[float] = None
        self.duration: Optional[float] = None

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self.started is not None
        self.duration = time.perf_counter() - self.started
        self.tracer._pop(self)


class Tracer:
    """Factory for spans bound to one registry and base label set.

    Args:
        registry: where span durations are recorded.
        labels: labels stamped on every span's metrics (e.g.
            ``{"engine": "microbatch"}``).
        metric: histogram family name (default ``stage_seconds``).
        quantiles: quantile points tracked per stage.
        sketch_every: quantile-sketch sampling factor for the emitted
            histograms (1 = sketch every observation).
        capture: keep a flat :class:`SpanRecord` per finished span in
            :attr:`records` (cross-process trace shipping / stitching).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        labels: Optional[Dict[str, str]] = None,
        metric: str = STAGE_SECONDS,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        sketch_every: int = 1,
        capture: bool = False,
    ) -> None:
        self.registry = registry
        self.labels = dict(labels or {})
        self.metric = metric
        self.quantiles = tuple(quantiles)
        self.sketch_every = sketch_every
        self.capture = capture
        self.records: List[SpanRecord] = []
        self._stack: List[Span] = []
        self._next_span_id = 1
        self._epoch = time.perf_counter()

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **labels: str) -> Span:
        """A new span for stage ``name`` (enter it with ``with``)."""
        merged = dict(self.labels)
        merged.update(labels)
        merged["stage"] = name
        span_id = self._next_span_id
        self._next_span_id += 1
        return Span(self, name, merged, self.current, span_id=span_id)

    def drain(self) -> List[SpanRecord]:
        """Hand over (and clear) the captured span records."""
        records, self.records = self.records, []
        return records

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)
        assert span.duration is not None
        self.registry.histogram(
            self.metric,
            quantiles=self.quantiles,
            sketch_every=self.sketch_every,
            **span.labels,
        ).observe(span.duration)
        if self.capture:
            assert span.started is not None
            self.records.append(
                SpanRecord(
                    span_id=span.span_id,
                    parent_id=(
                        span.parent.span_id
                        if span.parent is not None
                        else None
                    ),
                    name=span.name,
                    start_s=span.started - self._epoch,
                    duration_s=span.duration,
                    labels=span.labels,
                )
            )


def stage_seconds_by_stage(
    registry: MetricsRegistry, metric: str = STAGE_SECONDS, **label_filter: str
) -> Dict[str, float]:
    """Exact seconds spent per stage, read back from span histograms.

    Sums the ``metric`` family's histogram sums grouped by their
    ``stage`` label, restricted to children matching ``label_filter``
    (e.g. ``engine="sequential"``).
    """
    wanted = set(
        (str(k), str(v)) for k, v in label_filter.items()
    )
    totals: Dict[str, float] = {}
    for (name, labels), hist in registry._histograms.items():
        if name != metric or not wanted.issubset(labels):
            continue
        stage = dict(labels).get("stage", "")
        totals[stage] = totals.get(stage, 0.0) + hist.sum
    return totals

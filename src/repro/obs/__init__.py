"""Unified observability layer: metrics, spans, telemetry export.

Every subsystem — the reference pipeline, both engines, the stream
supervisor, alerting — reports into a process-local
:class:`MetricsRegistry`; stage costs are measured with
:class:`Tracer`/:class:`Span` context managers; and runs export their
telemetry as JSONL events (:class:`TelemetrySink`) or Prometheus text
exposition (:func:`prometheus_exposition`). Partition-side registries
fold into the driver via :class:`MetricsSnapshot.merge`, exactly like
per-partition normalizer statistics.
"""

from repro.obs.console import OpsConsole
from repro.obs.export import (
    TelemetrySink,
    prometheus_exposition,
    write_exposition,
)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import (
    SLO,
    Scorecard,
    SLOTracker,
    default_slos,
    family_quantile,
)
from repro.obs.tracing import (
    Span,
    SpanRecord,
    Tracer,
    WorkerTelemetry,
    span_tree,
    stage_seconds_by_stage,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramState",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_QUANTILES",
    "Span",
    "SpanRecord",
    "Tracer",
    "WorkerTelemetry",
    "span_tree",
    "stage_seconds_by_stage",
    "TelemetrySink",
    "prometheus_exposition",
    "write_exposition",
    "configure_logging",
    "get_logger",
    "OpsConsole",
    "FlightRecorder",
    "SLO",
    "SLOTracker",
    "Scorecard",
    "default_slos",
    "family_quantile",
]

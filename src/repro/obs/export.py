"""Telemetry export: JSONL event sink and Prometheus text exposition.

Two consumers, two formats:

* :class:`TelemetrySink` appends one JSON object per line to a file —
  periodic metric snapshots plus discrete run events (alerts,
  quarantines, checkpoints, run start/end). JSONL survives crashes
  (every line is flushed) and is trivially greppable/parsable, which is
  what the CI smoke step and offline analysis want.
* :func:`prometheus_exposition` renders a snapshot in the Prometheus
  text format (counters/gauges as-is, histograms as summaries with
  ``quantile`` labels plus ``_sum``/``_count``), so a scrape endpoint
  or textfile collector can serve the same registry.

Wired into the CLI via ``--metrics-out``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Optional, TextIO, Union

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

PathLike = Union[str, Path]

#: Default name prefix for exposed metrics.
PROM_PREFIX = "repro_"


class TelemetrySink:
    """Append-only JSONL event stream for one run.

    Every event carries ``event`` (its kind), ``ts`` (wall-clock epoch
    seconds) and ``seq`` (a per-sink monotonic sequence number, so
    ordering survives coarse timestamps). Lines are flushed as written;
    a crash loses at most the event being formatted.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[TextIO] = open(
            self.path, "a", encoding="utf-8"
        )
        self._seq = 0

    def event(self, kind: str, **fields: Any) -> None:
        """Append one event line (no-op after :meth:`close`)."""
        if self._handle is None:
            return
        payload: Dict[str, Any] = {
            "event": kind, "ts": time.time(), "seq": self._seq
        }
        payload.update(fields)
        self._seq += 1
        self._handle.write(json.dumps(payload, separators=(",", ":")))
        self._handle.write("\n")
        self._handle.flush()

    def snapshot(
        self,
        source: Union[MetricsRegistry, MetricsSnapshot],
        exact: bool = False,
        **fields: Any,
    ) -> None:
        """Append a ``snapshot`` event with the registry's current state.

        Compact by default (quantile estimates only); pass
        ``exact=True`` to embed the full sketch state.
        """
        if isinstance(source, MetricsRegistry):
            source = source.snapshot()
        self.event("snapshot", metrics=source.as_dict(exact=exact), **fields)

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _format_labels(labels: Dict[str, str], extra: str = "") -> str:
    items = [f'{k}="{_escape(v)}"' for k, v in sorted(labels.items())]
    if extra:
        items.append(extra)
    if not items:
        return ""
    return "{" + ",".join(items) + "}"


def _escape(value: str) -> str:
    """Label-value escaping per the exposition format: backslash first
    (so later escapes aren't double-escaped), then quote and newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _escape_help(value: str) -> str:
    # HELP text escapes only backslash and newline (quotes are legal).
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


#: Operator-facing help strings for the well-known metric families;
#: families not listed get a generic HELP line (the format requires
#: HELP/TYPE once per family, before its first sample).
METRIC_HELP: Dict[str, str] = {
    "tweets_consumed_total": "Tweets drawn from the source stream.",
    "tweets_ingested_total": "Tweets handed to the engine after ingest.",
    "tweets_processed_total": "Tweets fully processed by the pipeline.",
    "tweets_quarantined_total": "Tweets quarantined to the dead-letter queue.",
    "overload_shed_total": "Tweets shed by the bounded ingest queue.",
    "retries_total": "Batch/partition retry attempts.",
    "batches_total": "Micro-batches completed.",
    "batch_seconds": "Wall-clock seconds per micro-batch.",
    "partition_seconds": "Runner-observed seconds per partition task.",
    "stage_seconds": "Driver-observed seconds per engine stage.",
    "worker_stage_seconds": "Worker-observed seconds per partition stage.",
    "tweet_stage_seconds": (
        "Per-tweet seconds per pipeline stage. A labelled tweet's "
        "predict-and-learn call books to learn; predict holds only the "
        "unlabelled tweets' predictions, spread over every tweet of the "
        "block."
    ),
    "broadcast_encode_seconds": "Seconds pickling the batch broadcast.",
    "broadcast_decode_seconds": "Seconds decoding the broadcast per task.",
    "broadcast_decode_total": "Broadcast reads by resolution source.",
    "tweet_block_encode_seconds": "Seconds encoding the batch tweet block.",
    "transport_bytes_total": "Bytes shipped to workers, by channel.",
    "pipeline_fill": "In-flight pipelined batches (0 or 1).",
    "driver_idle_seconds": "Driver seconds blocked awaiting partitions.",
    "worker_idle_seconds": "Worker seconds idle between pipelined batches.",
    "partition_timeouts_total": "Partitions that blew their deadline.",
    "speculative_launches_total": "Speculative duplicate tasks launched.",
    "speculative_wins_total": "Speculative duplicates that won.",
    "pool_rebuilds_total": "Worker-pool rebuilds after lost workers.",
    "alerts_total": "Aggression alerts raised.",
    "checkpoints_total": "Checkpoints written.",
    "ingest_queue_depth": "Tweets waiting in the bounded ingest queue.",
    "degrade_level": "Current feature-degradation tier (0 = full).",
    "controller_n_partitions": "Partition count chosen by the controller.",
    "checkpoint_corrupt_total": "Corrupt checkpoint files skipped on resume.",
    "requests_total": "Serving requests answered, by endpoint and status.",
    "request_seconds": "Serving request latency, by endpoint.",
    "requests_degraded_total": "Requests answered below FULL feature tier.",
    "requests_error_total": "Requests that failed in the handler (500s).",
    "requests_shed_total": "Requests shed by admission control (429s).",
    "admission_queue_depth": "Requests waiting in the admission room.",
    "inflight_requests": "Requests currently being handled.",
    "connections_refused_total": "Connections refused at the wire, by reason.",
    "snapshots_published_total": "Model snapshots published to the store.",
    "snapshot_rejected_total": "Snapshots refused (checksum/structure).",
    "snapshot_swaps_total": "Hot model swaps completed by the server.",
    "snapshot_latest_version": "Newest snapshot version in the store.",
    "serving_snapshot_version": "Snapshot version currently serving.",
}


def _format_value(value: float) -> str:
    return repr(float(value))


def prometheus_exposition(
    source: Union[MetricsRegistry, MetricsSnapshot],
    prefix: str = PROM_PREFIX,
) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms are exposed
    summary-style: one sample per tracked quantile (``quantile``
    label), plus ``<name>_sum`` and ``<name>_count``. Unset gauges and
    never-observed quantiles are skipped. ``# HELP`` and ``# TYPE``
    headers are emitted exactly once per family, before its first
    sample; label values are escaped (backslash, double-quote,
    newline) so adversarial label content cannot corrupt the format.
    """
    if isinstance(source, MetricsRegistry):
        source = source.snapshot()
    lines = []
    seen_types = set()

    def type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            help_text = METRIC_HELP.get(name, f"{name} (no help registered).")
            lines.append(f"# HELP {prefix}{name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {prefix}{name} {kind}")

    for (name, labels), value in sorted(source.counters.items()):
        type_line(name, "counter")
        lines.append(
            f"{prefix}{name}{_format_labels(dict(labels))} "
            f"{_format_value(value)}"
        )
    for (name, labels), value in sorted(source.gauges.items()):
        if value is None:
            continue
        type_line(name, "gauge")
        lines.append(
            f"{prefix}{name}{_format_labels(dict(labels))} "
            f"{_format_value(value)}"
        )
    for (name, labels), state in sorted(source.histograms.items()):
        type_line(name, "summary")
        label_dict = dict(labels)
        for sketch in state.sketches:
            if sketch.value is None:
                continue
            quantile_label = f'quantile="{sketch.quantile:g}"'
            lines.append(
                f"{prefix}{name}"
                f"{_format_labels(label_dict, quantile_label)} "
                f"{_format_value(sketch.value)}"
            )
        lines.append(
            f"{prefix}{name}_sum{_format_labels(label_dict)} "
            f"{_format_value(state.sum)}"
        )
        lines.append(
            f"{prefix}{name}_count{_format_labels(label_dict)} "
            f"{_format_value(state.count)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_exposition(
    source: Union[MetricsRegistry, MetricsSnapshot],
    path: PathLike,
    prefix: str = PROM_PREFIX,
) -> int:
    """Write the exposition text to ``path``; returns the byte count."""
    text = prometheus_exposition(source, prefix=prefix)
    data = text.encode("utf-8")
    Path(path).write_bytes(data)
    return len(data)

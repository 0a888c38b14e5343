"""Live TTY ops console: one screen of run health, redrawn in place.

``repro run … --console`` renders a compact operational view —
throughput, queue depth, degrade tier, partition count, SLO burn —
after each supervisor chunk (or micro-batch), using plain ANSI
escapes (cursor-home + clear) rather than curses, so it works on any
VT-ish terminal and degrades to appending full frames when the output
is not a TTY (pipes, CI logs).

Rendering is split from I/O: :meth:`OpsConsole.render` is a pure
string builder (what the tests and the CI smoke exercise) and
:meth:`draw` handles throttling and the terminal. A ``BrokenPipeError``
(reader went away mid-run) permanently disables drawing instead of
crashing the run — the console is a view, never a failure source.
"""

from __future__ import annotations

import math
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOTracker

#: Minimum seconds between redraws (the stream can tick much faster).
MIN_REDRAW_INTERVAL_S = 0.2

_CLEAR = "\x1b[H\x1b[2J"


def _fmt(value: Optional[float], spec: str = ".1f") -> str:
    """Human field: '-' for missing/nan rather than a fake number."""
    if value is None:
        return "-"
    try:
        numeric = float(value)
    except (TypeError, ValueError):
        return str(value)
    if math.isnan(numeric):
        return "-"
    return format(numeric, spec)


class OpsConsole:
    """Renders run health to a terminal, one frame per tick.

    Args:
        stream: output file object (default ``sys.stderr`` — keeps the
            console visible while stdout carries data).
        min_interval_s: redraw throttle; ticks inside the window only
            update the internal state.
        use_ansi: redraw in place with ANSI escapes; defaults to
            ``stream.isatty()``.
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval_s: float = MIN_REDRAW_INTERVAL_S,
        use_ansi: Optional[bool] = None,
    ) -> None:
        self._stream: Optional[TextIO] = (
            stream if stream is not None else sys.stderr
        )
        self.min_interval_s = min_interval_s
        if use_ansi is None:
            try:
                use_ansi = bool(self._stream.isatty())
            except (AttributeError, ValueError):
                use_ansi = False
        self.use_ansi = use_ansi
        self.n_frames = 0
        # None until the first frame: time.monotonic() has an arbitrary
        # origin (often boot), so no numeric sentinel means "never".
        self._last_draw: Optional[float] = None
        self._last_rate_t: Optional[float] = None
        self._last_processed = 0.0

    # -- state extraction ----------------------------------------------

    def fields_from(
        self,
        registry: MetricsRegistry,
        tracker: Optional[SLOTracker] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One frame's worth of fields, read off the registry.

        Instantaneous throughput is the processed-counter delta over
        the wall time since the previous call (nan on the first frame
        — no interval to rate over yet).
        """
        processed = registry.total("tweets_processed_total")
        now = time.monotonic()
        if self._last_rate_t is None or now <= self._last_rate_t:
            rate = float("nan")
        else:
            rate = (processed - self._last_processed) / (
                now - self._last_rate_t
            )
        self._last_rate_t = now
        self._last_processed = processed
        fields: Dict[str, Any] = {
            "processed": processed,
            "throughput": rate,
            "consumed": registry.total("tweets_consumed_total"),
            "shed": registry.total("overload_shed_total"),
            "quarantined": registry.total("tweets_quarantined_total"),
            "alerts": registry.total("alerts_total"),
            "queue_depth": registry.gauge_value("ingest_queue_depth"),
            "degrade_tier": registry.gauge_value("degrade_level"),
            "n_partitions": registry.gauge_value(
                "controller_n_partitions"
            ),
            "batches": registry.total("batches_total"),
            "pool_rebuilds": registry.total("pool_rebuilds_total"),
            "slos": tracker.status() if tracker is not None else [],
        }
        if extra:
            fields.update(extra)
        return fields

    # -- rendering ------------------------------------------------------

    @staticmethod
    def render(fields: Dict[str, Any]) -> str:
        """Build one frame (pure; no I/O, no state)."""
        slos: List[Dict[str, Any]] = fields.get("slos") or []
        lines = [
            "repro ops console",
            (
                f"  throughput {_fmt(fields.get('throughput'), '8.1f')} "
                f"tweets/s   processed {_fmt(fields.get('processed'), '10.0f')}"
                f"   batches {_fmt(fields.get('batches'), '6.0f')}"
            ),
            (
                f"  queue depth {_fmt(fields.get('queue_depth'), '7.0f')}"
                f"   shed {_fmt(fields.get('shed'), '8.0f')}"
                f"   quarantined {_fmt(fields.get('quarantined'), '6.0f')}"
                f"   alerts {_fmt(fields.get('alerts'), '6.0f')}"
            ),
            (
                f"  degrade tier {_fmt(fields.get('degrade_tier'), '.0f')}"
                f"   partitions {_fmt(fields.get('n_partitions'), '.0f')}"
                f"   pool rebuilds {_fmt(fields.get('pool_rebuilds'), '.0f')}"
            ),
        ]
        if slos:
            lines.append("  slo burn (short/long, 1.0 = at budget):")
            for entry in slos:
                flame = " FIRING" if entry.get("firing") else ""
                lines.append(
                    f"    {entry['slo']:<20} "
                    f"{_fmt(entry.get('burn_short'), '6.2f')} / "
                    f"{_fmt(entry.get('burn_long'), '6.2f')}{flame}"
                )
        return "\n".join(lines) + "\n"

    # -- I/O ------------------------------------------------------------

    def draw(self, fields: Dict[str, Any], force: bool = False) -> bool:
        """Render and write one frame; returns whether it was drawn.

        Throttled to :attr:`min_interval_s`; a ``BrokenPipeError`` (or
        writing to a closed stream) disables the console for the rest
        of the run.
        """
        if self._stream is None:
            return False
        now = time.monotonic()
        if (
            not force
            and self._last_draw is not None
            and now - self._last_draw < self.min_interval_s
        ):
            return False
        frame = self.render(fields)
        try:
            if self.use_ansi:
                self._stream.write(_CLEAR)
            self._stream.write(frame)
            self._stream.flush()
        except (BrokenPipeError, ValueError, OSError):
            self._stream = None
            return False
        self._last_draw = now
        self.n_frames += 1
        return True

    def tick(
        self,
        registry: MetricsRegistry,
        tracker: Optional[SLOTracker] = None,
        extra: Optional[Dict[str, Any]] = None,
        force: bool = False,
    ) -> bool:
        """Extract fields and draw one frame (the per-chunk entry point)."""
        return self.draw(
            self.fields_from(registry, tracker=tracker, extra=extra),
            force=force,
        )

    def close(self) -> None:
        """Leave the terminal tidy (cursor below the last frame)."""
        if self._stream is None:
            return
        try:
            self._stream.write("\n")
            self._stream.flush()
        except (BrokenPipeError, ValueError, OSError):
            pass
        self._stream = None

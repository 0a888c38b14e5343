"""Analysis utilities: alert thresholds and run reports.

Precision/recall operating points for choosing an alert threshold, plus
terminal-friendly rendering and the markdown run report ``repro run
--report`` writes.
"""

from repro.analysis.reporting import ascii_chart, render_run_report
from repro.analysis.thresholds import (
    OperatingPoint,
    pr_curve,
    threshold_for_precision,
)

__all__ = [
    "ascii_chart",
    "render_run_report",
    "OperatingPoint",
    "pr_curve",
    "threshold_for_precision",
]

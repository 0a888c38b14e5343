"""Run reports: terminal charts and markdown summaries.

Turns :class:`~repro.core.pipeline.PipelineResult` objects into
human-readable artifacts — an ASCII sparkline/chart for metric curves,
and a markdown report for a single run.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.pipeline import PipelineResult

_BLOCKS = " ▁▂▃▄▅▆▇█"


def ascii_chart(
    series: Sequence[Tuple[int, float]],
    width: int = 60,
    lo: float = 0.0,
    hi: float = 1.0,
) -> str:
    """One-line block chart of a (x, value) series scaled to [lo, hi]."""
    if not series:
        return ""
    if hi <= lo:
        raise ValueError("need hi > lo")
    values = [value for _, value in series]
    if len(values) > width:
        # Downsample by averaging consecutive chunks.
        chunk = len(values) / width
        values = [
            sum(values[int(i * chunk):max(int((i + 1) * chunk), int(i * chunk) + 1)])
            / max(len(values[int(i * chunk):max(int((i + 1) * chunk), int(i * chunk) + 1)]), 1)
            for i in range(width)
        ]
    chars = []
    for value in values:
        clamped = min(max((value - lo) / (hi - lo), 0.0), 1.0)
        chars.append(_BLOCKS[round(clamped * (len(_BLOCKS) - 1))])
    return "".join(chars)


def render_run_report(result: PipelineResult, title: str = "Run report") -> str:
    """Markdown report for one pipeline run."""
    lines = [f"# {title}", ""]
    lines.append(f"- configuration: `{result.config.describe()}`")
    lines.append(
        f"- processed: {result.n_processed} tweets "
        f"({result.n_labeled} labeled, {result.n_unlabeled} unlabeled)"
    )
    lines.append(f"- alerts raised: {result.n_alerts}")
    lines.append(f"- bag-of-words size: {result.bow_size}")
    lines.append("")
    lines.append("| metric | value |")
    lines.append("|---|---|")
    for name, value in result.metrics.items():
        lines.append(f"| {name} | {value:.4f} |")
    curve = result.curve("window_f1")
    if curve:
        lines.append("")
        lines.append("windowed F1 over the stream (0 → 1):")
        lines.append("")
        lines.append("```")
        lines.append(ascii_chart(curve))
        lines.append("```")
    return "\n".join(lines)

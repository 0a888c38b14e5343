"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one table or figure of the paper. Results
are printed and also written to ``<name>.txt`` so they survive pytest's
output capture: into the committed ``benchmarks/results/`` at the
committed scale, otherwise into the ignored ``.bench_work/bench_results/``
so a small run never overwrites the committed tables. Speed claims live
in the perf ledger (``benchmarks/ledger/``), not here.

Scale control: experiments default to a reduced stream of 12,000
tweets so the whole suite runs in minutes (the committed scale); set
``REPRO_BENCH_TWEETS`` for another size, or ``REPRO_BENCH_FULL=1`` for
the paper's full 86k scale (committed too). Pipeline runs are cached
per configuration within a session, so benches that share runs (e.g.
Table II and Figs. 11/12) pay once.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline, PipelineResult
from repro.data.synthetic import AbusiveDatasetGenerator

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "") == "1"
DEFAULT_TWEETS = int(os.environ.get("REPRO_BENCH_TWEETS", "12000"))

#: Where :func:`report` writes: the committed tables only at the
#: committed scale, anything else to the ignored work tree.
RESULTS_DIR = (
    Path(__file__).parent / "results"
    if FULL_SCALE or "REPRO_BENCH_TWEETS" not in os.environ
    else Path(__file__).parent.parent / ".bench_work" / "bench_results"
)


def bench_tweets() -> Optional[int]:
    """Stream size for the accuracy experiments (None = paper scale)."""
    return None if FULL_SCALE else DEFAULT_TWEETS


@lru_cache(maxsize=4)
def abusive_stream(n_tweets: Optional[int] = None, seed: int = 42):
    """Cached synthetic stream (defaults to the bench scale)."""
    if n_tweets is None:
        n_tweets = bench_tweets()
    return AbusiveDatasetGenerator(n_tweets=n_tweets, seed=seed).generate_list()


@lru_cache(maxsize=64)
def run_config(
    n_classes: int = 3,
    model: str = "ht",
    preprocessing: bool = True,
    normalization: str = "minmax_no_outliers",
    adaptive_bow: bool = True,
    n_tweets: Optional[int] = None,
    seed: int = 42,
    model_params: Tuple[Tuple[str, object], ...] = (),
) -> PipelineResult:
    """Run (and cache) one pipeline configuration over the bench stream."""
    config = PipelineConfig(
        n_classes=n_classes,
        model=model,
        preprocessing=preprocessing,
        normalization=normalization,
        adaptive_bow=adaptive_bow,
        model_params=dict(model_params),
        seed=seed,
    )
    pipeline = AggressionDetectionPipeline(config)
    return pipeline.process_stream(abusive_stream(n_tweets, seed))


def report(
    name: str,
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    notes: Sequence[str] = (),
) -> str:
    """Format, print, and persist one experiment's result table."""
    widths = [
        max(len(str(headers[col])), *(len(_fmt(row[col])) for row in rows))
        for col in range(len(headers))
    ]
    lines = [title, "=" * len(title), ""]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
        )
    if notes:
        lines.append("")
        lines.extend(f"note: {note}" for note in notes)
    scale = "paper scale (86k)" if FULL_SCALE else f"{DEFAULT_TWEETS} tweets"
    lines.append("")
    lines.append(f"[workload: {scale}]")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print("\n" + text)
    return text


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def curve_rows(
    curves: Dict[str, List[Tuple[int, float]]], step: int = 1
) -> List[List[object]]:
    """Align several (n_seen, value) curves into table rows."""
    names = list(curves)
    xs = sorted({x for curve in curves.values() for x, _ in curve})[::step]
    lookup = {name: dict(curve) for name, curve in curves.items()}
    rows: List[List[object]] = []
    for x in xs:
        row: List[object] = [x]
        for name in names:
            value = lookup[name].get(x)
            row.append("-" if value is None else value)
        rows.append(row)
    return rows

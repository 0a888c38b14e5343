"""In-memory spans recorded by the benchmark around public calls, plus
the order statistics every ledger number is reduced with.

Spans never touch ``src/``: the benchmark times calls into each layer
from outside, keeps the rows in memory, and writes them out once at
the end (``--trace-out``). A layer's *self time* is its span minus the
part its child spans cover.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[str, float, float, Optional[int]]


class SpanLog:
    """Flat span table for one workload repetition."""

    def __init__(self, workload: str, rep: int = 0) -> None:
        self.workload = workload
        self.rep = rep
        self.rows: List[Row] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
    ) -> int:
        """Record one span; returns its id (for ``parent=``)."""
        self.rows.append((name, start, end, parent))
        return len(self.rows) - 1

    def add_many(
        self,
        name: str,
        starts: Sequence[float],
        ends: Sequence[float],
        parent: Optional[int] = None,
    ) -> None:
        """Bulk form for per-tweet / per-request spans timed in a hot
        loop into plain float lists."""
        self.rows.extend(
            (name, s, e, parent) for s, e in zip(starts, ends)
        )

    def self_seconds(self) -> Dict[str, float]:
        """Σ self time per span name (duration − children)."""
        child_total: Dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.rows:
            if parent is not None:
                child_total[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.rows):
            totals[name] += (end - start) - child_total.get(index, 0.0)
        return dict(totals)

    def to_json(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "rep": self.rep,
            "columns": ["name", "start", "end", "parent"],
            "spans": self.rows,
        }


def median(values: Iterable[float]) -> float:
    data = list(values)
    return statistics.median(data) if data else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        return math.nan
    data = sorted(values)
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the acceptance rule computes them."""
    if len(values) < 2:
        value = values[0] if values else math.nan
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3

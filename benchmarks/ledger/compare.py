#!/usr/bin/env python3
"""Compare two sets of ledger files (``run.py --out``) metric by metric.

    compare.py A.json B.json
    compare.py --a A1.json A2.json ... --b B1.json B2.json ...

A is the parent, B the change. For every end-to-end metric on every
workload the verdict is one of

* ``worse``        — B's median is worse than A's by more than the bound
  ``BENCHMARK.json`` fixes for that metric;
* ``better``       — B's median is better by more than the bound;
* ``within bound`` — neither;
* ``unresolved``   — the run-to-run spread on either side (distance
  between quartiles over its median, when a side has several files) is
  wider than the bound and the two sides' runs overlap, or a run
  flagged the metric itself (load generator ran late twice).

Exit code 0 when nothing is worse, 1 when something is, 2 when the
files cannot be compared (a ``--smoke`` ledger against a full one,
different seeds are fine).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from spans import median, quartiles  # noqa: E402

BETTER, WITHIN, WORSE, UNRESOLVED = "better", "within bound", "worse", "unresolved"


def load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    documents = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return documents


def refuse_reason(side_a: List[Dict[str, Any]], side_b: List[Dict[str, Any]]) -> Optional[str]:
    documents = side_a + side_b
    if len({doc.get("schema") for doc in documents}) != 1:
        return "ledger files have different schemas"
    if len({bool(doc.get("smoke")) for doc in documents}) != 1:
        return "a --smoke ledger cannot be compared with a full one"
    if len({doc.get("seconds") for doc in documents}) != 1:
        return "ledger files were measured for different --seconds"
    return None


def _values(side: List[Dict[str, Any]], workload: str, kind: str, name: str) -> List[float]:
    return [
        doc["workloads"][workload][kind][name]["value"]
        for doc in side
        if name in doc["workloads"].get(workload, {}).get(kind, {})
    ]


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, mid, q3 = quartiles(values)
    return abs(q3 - q1) / abs(mid) if mid else float("inf")


def verdict(
    a: List[float], b: List[float], better: str, bound: float, flagged: bool
) -> Tuple[str, float]:
    """(verdict, signed share by which B is worse than A)."""
    base, new = median(a), median(b)
    change = (new - base) / abs(base) if base else 0.0
    worse_by = change if better == "lower" else -change
    if flagged:
        return UNRESOLVED, worse_by
    if max(_spread(a), _spread(b)) > bound:
        separated = (
            (min(b) > max(a) or max(b) < min(a)) if len(a) > 1 and len(b) > 1
            else False
        )
        if not separated:
            return UNRESOLVED, worse_by
    if worse_by > bound:
        return WORSE, worse_by
    if worse_by < -bound:
        return BETTER, worse_by
    return WITHIN, worse_by


def compare(
    side_a: List[Dict[str, Any]],
    side_b: List[Dict[str, Any]],
    benchmark: Dict[str, Any],
) -> List[Dict[str, Any]]:
    rows = []
    for workload in spec.WORKLOADS:
        flagged = {
            name
            for doc in side_a + side_b
            for name in doc["workloads"].get(workload, {}).get("unresolved", [])
        }
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = _values(side_a, workload, "end_to_end", name)
            b = _values(side_b, workload, "end_to_end", name)
            if not a or not b:
                continue
            result, worse_by = verdict(
                a, b, metric["better"], metric["bound"], name in flagged
            )
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": median(a), "b": median(b), "n_a": len(a), "n_b": len(b),
                "worse_by": worse_by, "bound": metric["bound"],
                "verdict": result,
            })
    return rows


def layer_rows(
    side_a: List[Dict[str, Any]], side_b: List[Dict[str, Any]], benchmark: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Per-layer medians side by side (no bound, so no verdict)."""
    rows = []
    for workload in spec.WORKLOADS:
        for metric in benchmark["per_layer"]:
            a = _values(side_a, workload, "per_layer", metric["name"])
            b = _values(side_b, workload, "per_layer", metric["name"])
            if a and b:
                base, new = median(a), median(b)
                rows.append({
                    "workload": workload, "metric": metric["name"],
                    "unit": metric["unit"], "a": base, "b": new,
                    "change": (new - base) / abs(base) if base else 0.0,
                })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--a", nargs="+", default=None, help="parent runs")
    parser.add_argument("--b", nargs="+", default=None, help="change runs")
    parser.add_argument("--layers", action="store_true",
                        help="also list per-layer medians side by side")
    args = parser.parse_args(argv)
    if args.a and args.b and not args.files:
        paths_a, paths_b = args.a, args.b
    elif len(args.files) == 2 and not (args.a or args.b):
        paths_a, paths_b = [args.files[0]], [args.files[1]]
    else:
        parser.error("give A.json B.json, or --a ... --b ...")
    side_a, side_b = load(paths_a), load(paths_b)
    reason = refuse_reason(side_a, side_b)
    if reason is not None:
        print(f"compare: refused: {reason}", file=sys.stderr)
        return 2
    benchmark = spec.load_benchmark()
    rows = compare(side_a, side_b, benchmark)
    print(f"{'workload':<12} {'metric':<14} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<12} {row['metric']:<14} {row['a']:>12.5g} "
              f"{row['b']:>12.5g} {row['worse_by']:>+9.1%} {row['bound']:>6.0%}"
              f"  {row['verdict']}")
    for workload in spec.WORKLOADS:
        failed = [
            sorted({doc["workloads"][workload]["failed"] for doc in side})
            for side in (side_a, side_b)
        ]
        if failed != [[0], [0]]:
            print(f"{workload}: failed operations A={failed[0]} B={failed[1]}")
    if args.layers:
        print()
        for row in layer_rows(side_a, side_b, benchmark):
            print(f"{row['workload']:<12} {row['metric']:<38} {row['a']:>12.5g} "
                  f"{row['b']:>12.5g} {row['change']:>+8.1%} {row['unit']}")
    counts = {v: sum(1 for r in rows if r["verdict"] == v)
              for v in (BETTER, WITHIN, WORSE, UNRESOLVED)}
    print("summary: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts[WORSE] else 0


if __name__ == "__main__":
    sys.exit(main())

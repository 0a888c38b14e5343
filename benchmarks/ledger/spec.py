"""Workload sizes and the metric registry shared by the orchestrator,
its children, ``compare.py`` and the self-test.

``BENCHMARK.json`` at the repository root is the single registry of
metric names, units, directions and bounds; nothing here repeats it.
Sizes live here because a later change may not edit them while it
claims a gain.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
#: Scratch space for generated inputs, snapshot stores and server
#: logs; inside the checkout, ignored by git, removed after each run.
WORK_ROOT = REPO_ROOT / ".bench_work"

TRAIN_WORKLOADS = ("train_seq", "train_mb")
SERVE_WORKLOADS = ("serve_jsonl", "serve_http")
WORKLOADS = TRAIN_WORKLOADS + SERVE_WORKLOADS

#: A child prints its result as one line starting with this marker.
RESULT_MARKER = "LEDGER_RESULT "

#: Prequential weighted-F1 floors at full size. The issue's 0.83 / 0.80
#: hold at seed 42, but the check has to hold for whatever seed the
#: driver picks: over 40 seeds the sequential run reads 0.810–0.859
#: (one seed in ten lands near 0.81) and the micro-batch run
#: 0.803–0.838, so the floors sit three points under the worst seen.
F1_FLOORS = {"train_seq": 0.78, "train_mb": 0.77}

#: An open-loop window whose sender ran later than this (at the 95th
#: percentile) is set aside.
MAX_LATE_MS = 2.0


def n_cores() -> int:
    return len(os.sched_getaffinity(0))


def sizes(smoke: bool) -> Dict[str, Any]:
    """Everything that scales between a full run and ``--smoke``.

    ``brief_*`` sizes are for the layers a workload does not itself
    exercise: a traced run still has to report every per-layer metric,
    so it probes those layers with the same code on smaller inputs.
    """
    workers = min(n_cores(), 4)
    if smoke:
        return {
            "n_labeled": 800, "n_unlabeled": 1600,
            "batch_size": 200, "n_partitions": 4, "n_workers": workers,
            "chunk": 200, "seq_slice_every": 50,
            "brief_labeled": 400, "brief_unlabeled": 800,
            "n_layer": 1200, "n_variant": 1200,
            "serve_train": 500, "serve_extra": 100,
            "n_probe": 100, "n_requests": 400,
            "brief_serve_train": 500,
            "jsonl_rate": 1200.0, "http_rate": 500.0,
            "n_connections": min(n_cores(), 2),
            "explain_share": 0.1,
            "setups": 1,
            "brief_open_s": 0.6, "brief_closed_s": 0.4, "single_s": 0.3,
        }
    return {
        "n_labeled": 8000, "n_unlabeled": 16000,
        "batch_size": 2000, "n_partitions": 4, "n_workers": workers,
        "chunk": 2000, "seq_slice_every": 250,
        "brief_labeled": 1400, "brief_unlabeled": 2600,
        "n_layer": 6000, "n_variant": 6000,
        "serve_train": 5000, "serve_extra": 1000,
        "n_probe": 1000, "n_requests": 2000,
        "brief_serve_train": 2000,
        "jsonl_rate": 1200.0, "http_rate": 500.0,
        "n_connections": min(n_cores(), 2),
        "explain_share": 0.1,
        "setups": 3,
        "brief_open_s": 1.2, "brief_closed_s": 0.75, "single_s": 0.5,
    }


def pipeline_config() -> Any:
    """The one model configuration every workload uses: 3-class
    Hoeffding tree, ``minmax_no_outliers``, adaptive BoW. (Imports
    ``repro``, so only children call it.)"""
    from repro.core.config import PipelineConfig

    return PipelineConfig(n_classes=3)


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(benchmark: Dict[str, Any], kind: str) -> Dict[str, str]:
    """``{name: unit}`` for ``kind`` in ("end_to_end", "per_layer")."""
    return {m["name"]: m["unit"] for m in benchmark[kind]}


def child_env() -> Dict[str, str]:
    """Environment for children: this checkout's ``src`` first on the
    path, so an installed copy of ``repro`` can never be measured by
    mistake."""
    env = dict(os.environ)
    extra = [str(SRC_DIR), str(LEDGER_DIR)]
    if env.get("PYTHONPATH"):
        extra.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(extra)
    # One fewer thing that differs between two runs of the same commit.
    env["PYTHONHASHSEED"] = "0"
    return env


def parse_result(stdout: str) -> Dict[str, Any]:
    """The last marked line of a child's stdout, decoded."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_MARKER):
            return json.loads(line[len(RESULT_MARKER):])
    raise ValueError("child printed no result line")


def metric_names(benchmark: Dict[str, Any]) -> List[str]:
    return [m["name"] for m in benchmark["end_to_end"]] + [
        m["name"] for m in benchmark["per_layer"]
    ]

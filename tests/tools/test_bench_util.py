"""``bench_util.report`` writes the committed tables only at their scale.

A copy of ``benchmarks/bench_util.py`` runs in a temp tree, so the
checks never touch the repository's own ``benchmarks/results/``.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _report_in_copy(tmp_path: Path) -> Path:
    """Load a copy of bench_util under ``tmp_path`` and report one table."""
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    shutil.copy(ROOT / "benchmarks" / "bench_util.py", bench)
    spec = importlib.util.spec_from_file_location(
        "bench_util_copy", bench / "bench_util.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.report("probe", "Probe", ["k", "v"], [["a", 1]])
    return bench / "results" / "probe.txt"


def test_small_report_leaves_committed_tables_untouched(
    tmp_path, monkeypatch
):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    monkeypatch.setenv("REPRO_BENCH_TWEETS", "1500")
    committed = _report_in_copy(tmp_path)
    assert not committed.parent.exists()
    written = tmp_path / ".bench_work" / "bench_results" / "probe.txt"
    assert "[workload: 1500 tweets]" in written.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "env", [{}, {"REPRO_BENCH_FULL": "1", "REPRO_BENCH_TWEETS": "1500"}]
)
def test_committed_scale_rewrites_committed_tables(
    tmp_path, monkeypatch, env
):
    monkeypatch.delenv("REPRO_BENCH_FULL", raising=False)
    monkeypatch.delenv("REPRO_BENCH_TWEETS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    assert _report_in_copy(tmp_path).is_file()
    assert not (tmp_path / ".bench_work").exists()

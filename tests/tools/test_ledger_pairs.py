"""``tools/ledger_pairs.py --smoke`` against a stub ledger in a temp repo.

The real ledger takes minutes per run; the tool only starts commands and
reads the JSON they write, so a throw-away git repository whose
``benchmarks/ledger/run.py`` reports a number read from its own checkout
exercises everything the tool does: the parent comes from the *commit*
(not the edited working tree), the order flips each pair, seeds cycle,
``--smoke`` reaches ``run.py``, ``compare.py`` gets ``--a``/``--b``, and
the claim is judged by wins and by the parent's quartiles.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "ledger_pairs.py"

_spec = importlib.util.spec_from_file_location("ledger_pairs", TOOL)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

STUB_RUN = '''
import argparse, json, pathlib
parser = argparse.ArgumentParser()
parser.add_argument("--seed", type=int)
parser.add_argument("--out")
parser.add_argument("--smoke", action="store_true")
parser.add_argument("--workload")
args = parser.parse_args()
speed = float(pathlib.Path("speed.txt").read_text())
metrics = {
    "tweets_per_s": {"value": speed + args.seed},
    "p50_ms": {"value": 1000.0 / speed},
}
if args.workload:  # the contract mode: no --out, the result line last
    print(f"-- {args.workload} (end_to_end)")
    print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                      "metrics": metrics}))
else:
    log = pathlib.Path(args.out).parent / "order.log"
    with log.open("a") as handle:
        handle.write(f"{speed:g} seed={args.seed} smoke={args.smoke}\\n")
    json.dump({"workloads": {"train_seq": {"end_to_end": metrics}}},
              open(args.out, "w"))
'''

STUB_COMPARE = '''
import sys
a = sys.argv[sys.argv.index("--a") + 1 : sys.argv.index("--b")]
b = sys.argv[sys.argv.index("--b") + 1 :]
print(f"compared {len(a)} parent vs {len(b)} change")
'''


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args],
        check=True, capture_output=True,
    )


@pytest.fixture
def repo(tmp_path: Path) -> Path:
    repo = tmp_path / "repo"
    ledger = repo / "benchmarks" / "ledger"
    ledger.mkdir(parents=True)
    (ledger / "run.py").write_text(textwrap.dedent(STUB_RUN))
    (ledger / "compare.py").write_text(textwrap.dedent(STUB_COMPARE))
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "tweets_per_s", "better": "higher"},
        {"name": "p50_ms", "better": "lower"},
    ]}))
    (repo / "speed.txt").write_text("100")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "parent")
    (repo / "speed.txt").write_text("120")  # the uncommitted change
    return repo


def _run(repo: Path, out_dir: Path, *extra: str):
    return subprocess.run(
        [sys.executable, str(TOOL), "--repo", str(repo), "--parent", "HEAD",
         "--out-dir", str(out_dir), "--smoke", *extra],
        capture_output=True, text=True, timeout=120,
    )


def test_pairs_alternate_and_the_claim_is_judged(repo, tmp_path):
    out_dir = tmp_path / "out"
    done = _run(repo, out_dir, "--pairs", "3", "--seeds", "5", "6",
                "--claim", "train_seq:tweets_per_s")
    assert done.returncode == 0, done.stdout + done.stderr
    # Parent is the commit (100), change the working tree (120); the
    # order flips each pair and the seeds cycle.
    assert (out_dir / "order.log").read_text().splitlines() == [
        "100 seed=5 smoke=True", "120 seed=5 smoke=True",
        "120 seed=6 smoke=True", "100 seed=6 smoke=True",
        "100 seed=5 smoke=True", "120 seed=5 smoke=True",
    ]
    assert "compared 3 parent vs 3 change" in done.stdout
    assert "change won 3/3 (0 tied)" in done.stdout
    assert "claim met" in done.stdout
    assert len(list(out_dir.glob("parent_*.json"))) == 3
    # Nothing was left behind in the repository's git metadata.
    assert not (repo / ".git" / "worktrees").exists()


def test_workload_passes_through_and_says_it_is_not_the_claim(repo, tmp_path):
    out_dir = tmp_path / "out"
    done = _run(repo, out_dir, "--pairs", "2", "--workload", "train_seq",
                "--claim", "train_seq:tweets_per_s")
    assert done.returncode == 0, done.stdout + done.stderr
    # run.py was started with --workload (the stub only logs whole-ledger
    # runs) and its result line became a ledger-shaped file per run.
    assert not (out_dir / "order.log").exists()
    assert len(list(out_dir.glob("*.json"))) == 4
    assert "compared" not in done.stdout  # no compare.py table
    assert "change won 2/2 (0 tied)" in done.stdout
    assert "claim met on single-workload runs of train_seq only" in done.stdout
    assert "not the PR's claim" in done.stdout
    # Without a claim on that workload there is nothing to report.
    refused = _run(repo, out_dir, "--workload", "train_seq",
                   "--claim", "train_mb:tweets_per_s")
    assert refused.returncode == 2
    assert "--workload NAME needs --claim NAME:METRIC" in refused.stderr


def test_a_lower_is_better_claim_that_fails_exits_1(repo, tmp_path):
    (repo / "speed.txt").write_text("80")  # slower: p50 goes up
    done = _run(repo, tmp_path / "out", "--pairs", "2",
                "--claim", "train_seq:p50_ms")
    assert done.returncode == 1
    assert "change won 0/2" in done.stdout
    assert "claim NOT met" in done.stdout


def test_a_failing_run_exits_2(repo, tmp_path):
    (repo / "speed.txt").write_text("not a number")
    done = _run(repo, tmp_path / "out", "--pairs", "1")
    assert done.returncode == 2
    assert "exited 1" in done.stderr


def test_unknown_claim_metric_is_refused(repo, tmp_path):
    done = _run(repo, tmp_path / "out", "--claim", "train_seq:nope")
    assert done.returncode == 2
    assert "WORKLOAD:METRIC" in done.stderr


def test_judge_claim_needs_nine_tenths_and_the_parents_quartiles():
    parent = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0]
    ahead = [value + 5.0 for value in parent]
    assert ledger_pairs.judge_claim(parent, ahead, "higher") == (10, 0, True)
    assert ledger_pairs.judge_claim(parent, ahead, "lower") == (0, 0, False)
    # Nine wins of ten is enough; eight is not.
    assert ledger_pairs.judge_claim(parent, ahead[:9] + [90.0], "higher")[2]
    assert not ledger_pairs.judge_claim(
        parent, ahead[:8] + [90.0, 90.0], "higher"
    )[2]
    # Every pair ahead, but by less than the parent's own spread.
    noisy = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    barely = [value + 1.0 for value in noisy]
    assert ledger_pairs.judge_claim(noisy, barely, "higher") == (10, 0, False)
    # Ties count for neither side.
    assert ledger_pairs.judge_claim([1.0, 1.0], [1.0, 2.0], "higher")[:2] == (1, 1)

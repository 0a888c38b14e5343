#!/usr/bin/env python
"""Alternating parent/change perf-ledger pairs, and who won each.

The evidence a perf PR owes (ROADMAP "Open items", choosing-metrics §8):
N whole-ledger runs of the parent commit and N of the change, taken in
alternating order on seeds not used in development, judged by the
ledger's own ``compare.py``, plus — for the one metric the PR claims —
how many pairs the change won and whether the medians are further apart
than the parent's own quartiles.

    tools/ledger_pairs.py --parent HEAD~1 --pairs 10 --seeds 21 22 23 \\
        --claim train_seq:tweets_per_s

The parent is exported with ``git archive`` into a temporary directory
(nothing is left behind in ``.git``, and uncommitted edits stay on the
change side); the change is the working tree of ``--repo``. Each side
runs its own ``benchmarks/ledger/run.py --seed S --out …`` from its own
root; pair *i* uses ``seeds[i % len(seeds)]`` and flips which side goes
first. The verdict table is ``compare.py --a parent… --b change…`` from
the change's checkout. This file imports nothing from
``benchmarks/ledger/``: it only starts its commands and reads the JSON
they write.

``--smoke`` passes ``--smoke`` to ``run.py`` (a tenth of the size; a
plumbing check, not evidence). ``--workload NAME`` passes ``--workload``
through instead of running the whole ledger (~40 s a side instead of
~6 min): development pairs for the claimed metric only — ``run.py``
prints one workload's result line rather than a ledger, so there is no
``compare.py`` table, and the summary says the evidence is
single-workload and therefore not the PR's claim. Exit code:
``compare.py``'s, or 1 when a claim was named and is not met, or 2 when
a run fails.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

RUN = Path("benchmarks") / "ledger" / "run.py"
COMPARE = Path("benchmarks") / "ledger" / "compare.py"


def export_commit(repo: Path, rev: str, into: Path) -> None:
    """Unpack the committed tree of ``rev`` under ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def run_ledger(
    root: Path, seed: int, out: Path, smoke: bool,
    workload: Optional[str] = None,
) -> float:
    """One ledger run from ``root`` — whole, or only ``workload`` —
    leaving a ledger-shaped file at ``out``; returns the seconds it took."""
    command = [sys.executable, str(RUN), "--seed", str(seed)]
    command += ["--out", str(out)] if workload is None else ["--workload", workload]
    if smoke:
        command.append("--smoke")
    started = time.monotonic()
    done = subprocess.run(
        command, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    if done.returncode == 0 and workload is not None:
        # One-workload mode prints its result as the last stdout line.
        result = json.loads(done.stdout.strip().splitlines()[-1])
        out.write_text(json.dumps(
            {"workloads": {workload: {"end_to_end": result["metrics"]}}}
        ), encoding="utf-8")
    if done.returncode != 0 or not out.exists():
        sys.stderr.write(done.stdout)
        raise RuntimeError(
            f"{' '.join(command)} (in {root}) exited {done.returncode}"
        )
    return time.monotonic() - started


def metric_value(ledger: Path, workload: str, metric: str) -> float:
    document = json.loads(ledger.read_text(encoding="utf-8"))
    return document["workloads"][workload]["end_to_end"][metric]["value"]


def judge_claim(
    parent: Sequence[float], change: Sequence[float], better: str
) -> Tuple[int, int, bool]:
    """(pairs the change won, pairs tied, whether the claim is met).

    Met: the change wins at least nine tenths of the pairs, ties
    counting for neither side, and the medians differ — in the claimed
    direction — by more than the distance between the parent's
    quartiles.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    gap = sign * (statistics.median(change) - statistics.median(parent))
    spread = 0.0
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        spread = q3 - q1
    return wins, ties, wins >= 0.9 * len(parent) and gap > spread


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="+", default=[21, 22, 23])
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                        help="the end-to-end metric the PR claims a gain on")
    parser.add_argument("--repo", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout holding the change (default: this one)")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="keep the ledger files here (default: a temp dir)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workload", default=None, metavar="NAME",
                        help="development pairs: run only this workload "
                        "(needs --claim NAME:METRIC; no compare.py table)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.workload and not (args.claim or "").startswith(args.workload + ":"):
        parser.error("--workload NAME needs --claim NAME:METRIC")
    claim = better = None
    if args.claim:
        claim = tuple(args.claim.split(":"))
        benchmark = json.loads((args.repo / "BENCHMARK.json").read_text())
        directions = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
        if len(claim) != 2 or claim[1] not in directions:
            parser.error(f"--claim wants WORKLOAD:METRIC with METRIC in {sorted(directions)}")
        better = directions[claim[1]]

    out_dir = args.out_dir or Path(tempfile.mkdtemp(prefix="ledger-pairs-"))
    out_dir.mkdir(parents=True, exist_ok=True)
    files: Dict[str, List[Path]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ledger-parent-") as parent_root:
        export_commit(args.repo, args.parent, Path(parent_root))
        roots = {"parent": Path(parent_root), "change": args.repo.resolve()}
        for pair in range(args.pairs):
            seed = args.seeds[pair % len(args.seeds)]
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                out = (out_dir / f"{side}_{pair:02d}_seed{seed}.json").resolve()
                try:
                    took = run_ledger(
                        roots[side], seed, out, args.smoke, args.workload
                    )
                except RuntimeError as error:
                    print(f"ledger_pairs: {error}", file=sys.stderr)
                    return 2
                files[side].append(out)
                print(f"pair {pair} seed {seed} {side:<6} {took:6.1f} s  {out}",
                      flush=True)

    verdicts = 0
    if args.workload is None:
        verdicts = subprocess.run(
            [sys.executable, str(COMPARE), "--a", *map(str, files["parent"]),
             "--b", *map(str, files["change"])],
            cwd=args.repo,
        ).returncode
    if claim is None:
        return verdicts
    workload, metric = claim
    parent = [metric_value(path, workload, metric) for path in files["parent"]]
    change = [metric_value(path, workload, metric) for path in files["change"]]
    print(f"\n{metric} on {workload} ({better} is better), pair by pair:")
    for pair, (a, b) in enumerate(zip(parent, change)):
        first = "parent" if pair % 2 == 0 else "change"
        winner = "tie" if a == b else (
            "change" if (b > a) == (better == "higher") else "parent"
        )
        print(f"  pair {pair} ({first} first)  parent {a:12.5g}  change {b:12.5g}"
              f"  {(b - a) / abs(a) if a else 0.0:+7.1%}  {winner}")
    wins, ties, met = judge_claim(parent, change, better)
    base, new = statistics.median(parent), statistics.median(change)
    print(f"  change won {wins}/{len(parent)} ({ties} tied); medians "
          f"{base:.5g} -> {new:.5g} ({(new - base) / abs(base) if base else 0.0:+.1%});"
          f" claim {'met' if met else 'NOT met'}"
          + (f" on single-workload runs of {workload} only — development"
             " evidence, not the PR's claim (that takes whole-ledger pairs)"
             if args.workload else ""))
    return verdicts or (0 if met else 1)


if __name__ == "__main__":
    sys.exit(main())

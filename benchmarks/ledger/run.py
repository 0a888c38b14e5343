#!/usr/bin/env python3
"""Perf ledger: the repository's benchmark.

Two ways in, one code path underneath:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one
  workload, one run; the last stdout line is the result object the
  benchmark contract in ``BENCHMARK.json`` describes (``--trace 0``:
  every end-to-end metric; ``--trace 1``: every per-layer metric).
* ``run.py --seed N [--smoke] [--out FILE] [--trace-out FILE]`` — the
  whole ledger: the four workloads untraced, then one traced pass per
  workload, every metric printed by name with its unit, non-zero exit
  on any correctness or hygiene failure.

This file only orchestrates. It never imports ``repro`` or
``multiprocessing``: every piece of measured work runs in a child with
a session of its own (see :mod:`procs`), and the run fails if any
process or ``/dev/shm`` segment outlives its child.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import spec  # noqa: E402
from procs import ProcessGuard  # noqa: E402
from spans import median, percentile, quartiles  # noqa: E402

CHILD_TIMEOUT_S = 150.0
SMOKE_SECONDS = 1.5
COVERAGE_BAND = (0.9, 1.1)


class ChildFailed(RuntimeError):
    pass


class Ledger:
    """Runs workloads through guarded children and reduces their
    reports to the declared metrics."""

    def __init__(
        self,
        guard: ProcessGuard,
        seed: int,
        seconds: float,
        smoke: bool,
        work: Path,
    ) -> None:
        self.guard = guard
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.sizes = spec.sizes(smoke)
        self.work = work
        self.env = spec.child_env()
        self.span_files: List[Path] = []

    # -- children -------------------------------------------------------

    def child(self, task: str, child_spec: Dict[str, Any]) -> Dict[str, Any]:
        child_spec = dict(child_spec, spawned_at=perf_counter())
        outcome = self.guard.run(
            [
                sys.executable,
                str(spec.LEDGER_DIR / "worker.py"),
                task,
                json.dumps(child_spec),
            ],
            timeout_s=CHILD_TIMEOUT_S,
            env=self.env,
            cwd=str(spec.REPO_ROOT),
        )
        if outcome.timed_out:
            raise ChildFailed(f"{task}: timed out after {CHILD_TIMEOUT_S:.0f} s")
        if outcome.returncode != 0:
            raise ChildFailed(f"{task}: exit code {outcome.returncode}")
        try:
            result = spec.parse_result(outcome.stdout)
        except ValueError as exc:
            raise ChildFailed(f"{task}: {exc}") from exc
        return result

    def generate(self, name: str, n_labeled: int, n_unlabeled: int) -> Dict[str, Any]:
        path = self.work / name
        result = self.child("gen_train", {
            "seed": self.seed, "path": str(path),
            "n_labeled": n_labeled, "n_unlabeled": n_unlabeled,
        })
        result["path"] = str(path)
        result["n_expected"] = n_labeled + n_unlabeled
        return result

    def _train_spec(self, engine: str, path: str) -> Dict[str, Any]:
        sz = self.sizes
        return {
            "engine": engine, "path": path, "chunk": sz["chunk"],
            # The micro-batch engine pulls a whole batch at once, so
            # the stream can only be paused between batches.
            "slice_every": sz["seq_slice_every"] if engine == "seq" else sz["chunk"],
            "n_partitions": sz["n_partitions"], "n_workers": sz["n_workers"],
            "batch_size": sz["batch_size"],
        }

    def _serve_spec(self, workload: str, tag: str) -> Dict[str, Any]:
        keys = (
            "serve_train", "serve_extra", "n_probe", "n_requests",
            "n_connections", "explain_share",
        )
        base = {key: self.sizes[key] for key in keys}
        base.update(
            seed=self.seed, workload=workload,
            # A directory of its own: a reused snapshot store would
            # start the server on somebody else's version numbers.
            dir=str(self.work / f"serve-{workload}-{tag}"), sections=[],
        )
        return base

    def _section(self, protocol: str, open_s: float, closed_s: float, **extra: Any) -> Dict[str, Any]:
        return dict(
            protocol=protocol,
            rate_hz=self.sizes[f"{protocol}_rate"],
            open_s=open_s, closed_s=closed_s,
            swap=protocol == "http",
            **extra,
        )

    # -- untraced: end-to-end metrics -----------------------------------

    def untraced(self, workload: str) -> Dict[str, Any]:
        if workload in spec.TRAIN_WORKLOADS:
            return self._untraced_train(workload)
        return self._untraced_serve(workload)

    def _untraced_train(self, workload: str) -> Dict[str, Any]:
        sz = self.sizes
        engine = "seq" if workload == "train_seq" else "mb"
        generated = [
            self.generate("in.jsonl", sz["n_labeled"], sz["n_unlabeled"])
            for _ in range(sz["setups"])
        ]
        n_total = generated[-1]["n_expected"]
        rep_spec = self._train_spec(engine, generated[-1]["path"])
        reps: List[Dict[str, Any]] = []
        began = perf_counter()
        while True:
            reps.append(self.child("train_rep", rep_spec))
            elapsed = perf_counter() - began
            # Another repetition only if most of it fits in the budget.
            if elapsed >= self.seconds - 0.25 * elapsed / len(reps):
                break
        # Every stretch of the stream is scaled to the reference host
        # by the speed its two bracketing slices measured; stretches
        # add up to the 2 000-tweet windows and to the repetition.
        per_chunk = sz["chunk"] // rep_spec["slice_every"]
        views = []
        for rep in reps:
            speeds = hostspeed.bracketed(rep["slices"])
            scaled = [ms * s for ms, s in zip(rep["stretch_ms"], speeds)]
            wall_ref = sum(scaled) / 1e3
            views.append({
                "chunk_ms": [
                    sum(scaled[k:k + per_chunk])
                    for k in range(0, len(scaled), per_chunk)
                ],
                "wall_s": wall_ref,
                "scale": wall_ref / (sum(rep["stretch_ms"]) / 1e3),
                "first_speed": speeds[0],
            })
        rates = [r["n_processed"] / v["wall_s"] for r, v in zip(reps, views)]
        windows_ms = [ms for v in views for ms in v["chunk_ms"]]
        generate_s = [g["setup_s"] * g["setup_speed"] for g in generated]
        metrics = {
            "setup_s": median(generate_s) + median(
                r["startup_s"] * v["first_speed"] for r, v in zip(reps, views)
            ),
            "tweets_per_s": median(rates),
            "f1": reps[0]["f1"],
            # Percentiles over the windows of all repetitions pooled:
            # each repetition has one cold window, and a stall in one
            # of them should not decide the 95th percentile.
            "p50_ms": percentile(windows_ms, 50),
            "p95_ms": percentile(windows_ms, 95),
            "cpu_s_per_1k": median(
                r["cpu_s"] * v["scale"] / (r["n_processed"] / 1000.0)
                for r, v in zip(reps, views)
            ),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        }
        checks = {
            "input_complete": all(g["n_written"] == n_total for g in generated),
            "all_processed": all(r["n_processed"] == n_total for r in reps),
            "digest_stable": len({r["digest"] for r in reps}) == 1,
            "f1_stable": len({r["f1"] for r in reps}) == 1,
        }
        if not self.smoke:
            checks["f1_above_floor"] = reps[0]["f1"] >= spec.F1_FLOORS[workload]
        q1, _, q3 = quartiles(rates)
        return {
            "metrics": metrics,
            "attempted": sum(r["n_ingested"] for r in reps),
            "failed": sum(r["n_ingested"] - r["n_processed"] for r in reps),
            "checks": checks,
            "detail": {
                "repetitions": len(reps),
                "tweets_per_s_q1": q1, "tweets_per_s_q3": q3,
                "digest": reps[0]["digest"],
                "host_speed": [v["scale"] for v in views],
                "raw_tweets_per_s": median(
                    r["n_processed"] / r["wall_s"] for r in reps
                ),
                "wall_s": [r["wall_s"] for r in reps],
                "stretch_ms": [r["stretch_ms"] for r in reps],
                "cpu_s": [r["cpu_s"] for r in reps],
                "slices": [r["slices"] for r in reps],
            },
        }

    def _untraced_serve(self, workload: str) -> Dict[str, Any]:
        protocol = workload.split("_", 1)[1]
        setups = [
            self.child("serve", self._serve_spec(workload, f"setup{k}"))
            for k in range(self.sizes["setups"] - 1)
        ]
        main_spec = self._serve_spec(workload, "main")
        main_spec["sections"] = [
            self._section(
                protocol, 0.6 * self.seconds, 0.3 * self.seconds, probe=True
            )
        ]
        report = self.child("serve", main_spec)
        section = report["sections"][protocol]
        probe, opened, closed = section["probe"], section["open"], section["closed"]
        counts = section["counts"]
        metrics = {
            "setup_s": median(
                r["setup_s"] * r["setup_speed"] for r in setups + [report]
            ),
            # Already scaled to the reference host, window by window.
            "tweets_per_s": closed["qps"],
            "f1": probe["f1"],
            "p50_ms": opened["p50_ms"],
            "p95_ms": opened["p95_ms"],
            # ms per request = CPU-s per 1 000. The open loop costs the
            # server more per request than the closed one (it wakes up
            # for each); the two operating points weigh the same.
            "cpu_s_per_1k": (opened["cpu_ms"] + closed["cpu_ms"]) / 2.0,
            "peak_rss_mb": report["server_peak_rss_mb"],
        }
        checks = {
            "probe_answered": probe["ok"] == probe["sent"] == self.sizes["n_probe"],
            "probe_matches_in_process": probe["mismatches"] == 0,
            "zero_5xx": counts["server_5xx"] == 0,
            "server_drained_cleanly": report["server_exit_code"] == 0,
        }
        if workload == "serve_http":
            checks["both_versions_served"] = set(section["versions"]) >= {1, 2}
        return {
            "metrics": metrics,
            "attempted": counts["sent"],
            "failed": counts["sent"] - counts["ok"],
            "checks": checks,
            "unresolved": ["p50_ms", "p95_ms"] if opened["unresolved"] else [],
            "detail": {
                "open": opened, "closed": closed, "probe": probe,
                "versions": section["versions"],
                "setup_raw_s": [r["setup_s"] for r in setups + [report]],
            },
        }

    # -- traced: per-layer metrics --------------------------------------

    def traced(self, workload: str, foreign_layers: bool) -> Dict[str, Any]:
        """The workload's own layers at full size; with
        ``foreign_layers`` also a brief probe of every layer the
        workload does not exercise, so the result names every
        per-layer metric."""
        sz = self.sizes
        own = {
            "train_seq": "core", "train_mb": "mb",
            "serve_jsonl": "jsonl", "serve_http": "http",
        }[workload]
        wanted = ("core", "mb", "jsonl", "http") if foreign_layers else (own,)
        metrics: Dict[str, float] = {}
        checks: Dict[str, bool] = {}
        unresolved: List[str] = []
        detail: Dict[str, Any] = {}

        train_sections = [s for s in ("core", "mb") if s in wanted]
        full = brief = None
        if own in train_sections:
            full = self.generate("in.jsonl", sz["n_labeled"], sz["n_unlabeled"])
        if any(section != own for section in train_sections):
            brief = self.generate(
                "brief.jsonl", sz["brief_labeled"], sz["brief_unlabeled"]
            )

        for section in train_sections:
            is_own = section == own
            source = full if is_own else brief
            assert source is not None
            engine = "seq" if section == "core" else "mb"
            child_spec = self._train_spec(engine, source["path"])
            child_spec.update(
                workload=workload, dir=str(self.work),
                n_layer=sz["n_layer"], n_variant=sz["n_variant"],
            )
            if not is_own:
                # Brief: half-size batches keep four batches in the
                # short stream so batch percentiles stay defined.
                child_spec["batch_size"] = max(1, sz["batch_size"] // 2)
                child_spec["n_variant"] = source["n_expected"] // 2
            if is_own:
                child_spec["spans_path"] = self._span_file(workload, section)
            report = self.child(f"trace_{section}", child_spec)
            metrics.update(report["metrics"])
            if not is_own:
                continue
            untraced = self.child(
                "train_rep", self._train_spec(engine, source["path"])
            )
            # Coverage is taken inside the traced child — do its spans
            # tile its own wall? — because on this host two children
            # seconds apart differ by more than the 10 % band. The
            # overhead is the cross-child ratio, each side scaled by
            # the host speed it saw: a diagnostic, not a check.
            traced_speed = hostspeed.speed(report["slices"])
            coverage = report["covered_s"] / report["traced_wall_s"]
            metrics["host.speed"] = traced_speed
            metrics["trace.coverage"] = coverage
            metrics["trace.overhead_frac"] = (
                report["traced_wall_s"] * traced_speed
                / (untraced["wall_s"] * hostspeed.speed(untraced["slices"]))
                - 1.0
            )
            checks["all_processed"] = (
                report["n_processed"] == source["n_expected"]
                == untraced["n_processed"]
            )
            checks["traced_matches_untraced_f1"] = report["f1"] == untraced["f1"]
            if not self.smoke:
                checks["coverage_in_band"] = (
                    COVERAGE_BAND[0] <= coverage <= COVERAGE_BAND[1]
                )
            if section == "mb":
                checks["traced_matches_untraced_digest"] = (
                    report["digest"] == untraced["digest"]
                )
                checks["runner_digests_equal"] = (
                    len(set(report["variant_digests"].values())) == 1
                )
            detail[section] = {
                k: report[k] for k in ("traced_wall_s", "covered_s")
            }
            detail[section]["untraced_wall_s"] = untraced["wall_s"]

        serve_sections = [p for p in ("jsonl", "http") if p in wanted]
        if serve_sections:
            serve_spec = self._serve_spec(workload, "traced")
            if own not in serve_sections:
                serve_spec["serve_train"] = sz["brief_serve_train"]
            for protocol in serve_sections:
                if protocol == own:
                    open_s, closed_s = 0.6 * self.seconds, 0.3 * self.seconds
                else:
                    open_s, closed_s = sz["brief_open_s"], sz["brief_closed_s"]
                serve_spec["sections"].append(self._section(
                    protocol, open_s, closed_s,
                    probe=protocol == own, single_s=sz["single_s"],
                ))
            serve_spec.update(traced=True, layer_probes=True)
            if own in serve_sections:
                serve_spec["spans_path"] = self._span_file(workload, own)
            report = self.child("serve", serve_spec)
            self._serve_layers(
                workload, own, report, metrics, checks, unresolved, detail
            )
        return {
            "metrics": metrics, "checks": checks,
            "unresolved": unresolved, "detail": detail,
        }

    def _serve_layers(
        self,
        workload: str,
        own: str,
        report: Dict[str, Any],
        metrics: Dict[str, float],
        checks: Dict[str, bool],
        unresolved: List[str],
        detail: Dict[str, Any],
    ) -> None:
        sections = report["sections"]
        metrics.update(report["layers"])
        classify_us = report["layers"]["model.classify_us"]
        for protocol, section in sections.items():
            metrics[f"server.{protocol}_overhead_us"] = (
                section["single_median_us"] - classify_us
            )
        # Generic load-generator numbers come from the workload's own
        # protocol (JSONL when the workload is a train one); the swap
        # only ever happens on HTTP.
        primary = sections[own] if own in sections else sections["jsonl"]
        opened = primary["open"]
        metrics["server.busy_frac"] = opened["busy_frac"]
        for name in (
            "sent", "ok", "shed_429", "errors", "degraded",
            "late_p50_ms", "late_p99_ms", "p99_ms",
        ):
            metrics[f"loadgen.{name}"] = float(opened[name])
        if "http" in sections:
            swap = sections["http"]
            metrics["loadgen.swap_window_p95_ms"] = swap["open"]["swap_window_p95_ms"]
            metrics["loadgen.versions_served"] = float(len(swap["versions"]))
            checks["both_versions_served"] = set(swap["versions"]) >= {1, 2}
        checks["server_drained_cleanly"] = report["server_exit_code"] == 0
        checks["zero_5xx"] = all(
            s["counts"]["server_5xx"] == 0 for s in sections.values()
        )
        if opened["unresolved"]:
            unresolved.append("loadgen.late_p99_ms")
        if own in sections:
            section = sections[own]
            checks["probe_matches_in_process"] = section["probe"]["mismatches"] == 0
            metrics["trace.coverage"] = (
                section["closed_span_seconds"] / section["closed"]["client_seconds"]
            )
            metrics["trace.overhead_frac"] = (
                section["span_build_seconds"] / (0.9 * self.seconds)
            )
            metrics["host.speed"] = section["open"]["speed"]
        detail["serve"] = {
            protocol: {"open": section["open"], "closed": section["closed"]}
            for protocol, section in sections.items()
        }

    def _span_file(self, workload: str, section: str) -> str:
        path = self.work / f"spans-{workload}-{section}.json"
        self.span_files.append(path)
        return str(path)


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def stamp() -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", "r") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # noqa: BLE001 - metadata lookups fail in many ways
        numpy_version = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(spec.REPO_ROOT),
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Any]:
    return {
        name: {"value": values[name], "unit": units[name]}
        for name in values
    }


def print_metrics(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(f"-- {title}")
    for name in sorted(values):
        print(f"   {name:<36} {values[name]:>16.6g} {units.get(name, '?')}")


def print_checks(checks: Dict[str, bool]) -> None:
    for name, passed in sorted(checks.items()):
        print(f"   check {name:<30} {'ok' if passed else 'FAILED'}")


def finite(values: Dict[str, float]) -> bool:
    return all(
        isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def driver_mode(args: argparse.Namespace, ledger: Ledger, benchmark: Dict[str, Any]) -> int:
    """One workload, one run, the contract's result line last."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = spec.metric_units(benchmark, kind)
    if args.trace:
        result = ledger.traced(args.workload, foreign_layers=True)
        result.setdefault("attempted", 1)
        result.setdefault("failed", 0)
    else:
        result = ledger.untraced(args.workload)
    hygiene = ledger.guard.hygiene()
    values = result["metrics"]
    print_metrics(f"{args.workload} ({kind})", values, units)
    print_checks(result["checks"])
    for name in result.get("unresolved", []):
        print(f"   unresolved {name} (load generator ran late twice)")
    print(f"   leaked_processes {hygiene['leaked_processes']}")
    print(f"   leaked_shm_segments {hygiene['leaked_shm_segments']}")
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra or not finite(values):
        print(f"metric set mismatch: missing={missing} extra={extra}", file=sys.stderr)
        return 1
    correct = (
        all(result["checks"].values())
        and hygiene["leaked_processes"] == 0
        and hygiene["leaked_shm_segments"] == 0
    )
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": with_units(values, units),
    }))
    return 0 if correct else 1


def ledger_mode(args: argparse.Namespace, ledger: Ledger, benchmark: Dict[str, Any]) -> int:
    """All four workloads untraced, then one traced pass each."""
    e2e_units = spec.metric_units(benchmark, "end_to_end")
    layer_units = spec.metric_units(benchmark, "per_layer")
    document: Dict[str, Any] = {
        "schema": 1,
        "smoke": ledger.smoke,
        "seed": ledger.seed,
        "seconds": ledger.seconds,
        "stamp": stamp(),
        "workloads": {},
    }
    ok = True
    for workload in spec.WORKLOADS:
        result = ledger.untraced(workload)
        print_metrics(f"{workload} end to end", result["metrics"], e2e_units)
        print_checks(result["checks"])
        ok = ok and all(result["checks"].values()) and finite(result["metrics"])
        document["workloads"][workload] = {
            "end_to_end": with_units(result["metrics"], e2e_units),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "checks": result["checks"],
            "unresolved": result.get("unresolved", []),
            "detail": result["detail"],
        }
    for workload in spec.WORKLOADS:
        result = ledger.traced(workload, foreign_layers=False)
        print_metrics(f"{workload} per layer", result["metrics"], layer_units)
        print_checks(result["checks"])
        ok = ok and all(result["checks"].values())
        entry = document["workloads"][workload]
        entry["per_layer"] = with_units(result["metrics"], layer_units)
        entry["checks"].update(result["checks"])
        entry["unresolved"] += result["unresolved"]
        entry["trace_detail"] = result["detail"]
    hygiene = ledger.guard.hygiene()
    document["hygiene"] = hygiene
    print(f"leaked_processes {hygiene['leaked_processes']}")
    print(f"leaked_shm_segments {hygiene['leaked_shm_segments']}")
    ok = ok and not hygiene["leaked_processes"] and not hygiene["leaked_shm_segments"]
    document["ok"] = ok
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    if args.trace_out:
        traces = []
        for path in ledger.span_files:
            if path.exists():
                traces.append(json.loads(path.read_text(encoding="utf-8")))
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(traces, handle)
    print("ledger: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def parse_args(argv: Optional[List[str]], benchmark: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS, default=None,
                        help="run one workload (benchmark-contract mode)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                        "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="same code paths at about a tenth of the size")
    parser.add_argument("--out", default=None,
                        help="write the full ledger as JSON (ledger mode)")
    parser.add_argument("--trace-out", default=None,
                        help="write the recorded spans as JSON (ledger mode)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(benchmark["run_seconds"])
    return args


def main(argv: Optional[List[str]] = None) -> int:
    benchmark = spec.load_benchmark()
    args = parse_args(argv, benchmark)
    if not spec.SRC_DIR.is_dir():
        print(f"no program to measure: {spec.SRC_DIR} is missing", file=sys.stderr)
        return 2
    guard = ProcessGuard()
    guard.install()
    work = spec.WORK_ROOT / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ledger = Ledger(guard, args.seed, args.seconds, args.smoke, work)
    try:
        if args.workload is not None:
            return driver_mode(args, ledger, benchmark)
        return ledger_mode(args, ledger, benchmark)
    except ChildFailed as exc:
        print(f"ledger: child failed: {exc}", file=sys.stderr)
        hygiene = guard.hygiene()
        print(f"leaked_processes {hygiene['leaked_processes']}", file=sys.stderr)
        print(f"leaked_shm_segments {hygiene['leaked_shm_segments']}", file=sys.stderr)
        return 1
    finally:
        guard.cleanup()
        shutil.rmtree(work, ignore_errors=True)
        try:
            spec.WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

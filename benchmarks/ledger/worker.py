"""Child entry point: every piece of work that imports ``repro`` runs
here, in a session of its own, so the orchestrator can prove nothing
outlives it.

Usage: ``python worker.py <task> '<json spec>'``. The result is the
last stdout line, ``LEDGER_RESULT {json}``.

Train tasks drive the program the way ``repro run`` does
(``read_jsonl`` → ``SequentialEngine.run`` / ``MicroBatchEngine.run``);
nothing under ``src/`` is patched or instrumented.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter
from typing import Any, Dict, Iterator, List, Tuple

import hostspeed
from spec import RESULT_MARKER, SRC_DIR, pipeline_config


def check_checkout() -> None:
    """Refuse to measure any ``repro`` but this checkout's."""
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(str(SRC_DIR)) + os.sep):
        raise SystemExit(f"repro imported from {origin}, not {SRC_DIR}")


def cpu_and_rss() -> Dict[str, float]:
    """CPU seconds and peak RSS of this process plus the descendants
    it has waited for (call after pools are closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    }


def task_gen_train(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Write the seeded labeled+unlabeled firehose mix as JSONL."""
    from repro.data.firehose import FirehoseWorkload
    from repro.data.loader import write_jsonl

    slices = hostspeed.sample(5)
    workload = FirehoseWorkload(
        n_unlabeled=spec["n_unlabeled"],
        n_labeled=spec["n_labeled"],
        seed=spec["seed"],
    )
    n_written = write_jsonl(workload.stream(), spec["path"])
    end = perf_counter()
    slices += hostspeed.sample(5)
    return {
        "n_written": n_written,
        "setup_s": end - spec["spawned_at"] - sum(slices[:5]),
        "setup_speed": hostspeed.speed(slices),
    }


def make_engine(spec: Dict[str, Any]) -> Any:
    """Sequential engine, or the micro-batch engine in the variant the
    spec asks for (default: processes runner, sync, telemetry on)."""
    config = pipeline_config()
    if spec["engine"] == "seq":
        from repro.engine.sequential import SequentialEngine

        return SequentialEngine(config)
    from repro.engine.microbatch import MicroBatchEngine

    return MicroBatchEngine(
        config,
        n_partitions=spec["n_partitions"],
        batch_size=spec["batch_size"],
        runner=spec.get("runner", "processes"),
        n_workers=spec["n_workers"],
        pipelined=spec.get("pipelined", False),
        worker_telemetry=spec.get("worker_telemetry", True),
    )


def close_engine(engine: Any) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def engine_outcome(engine: Any, result: Any) -> Dict[str, Any]:
    """Processed count, prequential F1 and final-model digest, for
    either engine's result shape."""
    from repro.engine.replay import model_state_digest

    inner = getattr(result, "pipeline_result", result)
    model = getattr(engine, "model", None)
    if model is None:
        model = engine.pipeline.model
    return {
        "n_processed": inner.n_processed,
        "n_quarantined": inner.n_quarantined,
        "f1": result.metrics["f1"],
        "digest": model_state_digest(model),
    }


def task_train_rep(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One cold repetition of a train workload, untraced.

    The input generator pauses every ``slice_every`` tweets to note the
    time and run one host-speed slice, so every stretch of the stream
    is bracketed by two slices: that gives the time each stretch took
    and how fast the host was while it ran, without touching the
    engine. The pauses are subtracted from the wall. The sequential
    engine's slices run where it runs, in this thread; the micro-batch
    engine's work is on every core, and so are its slices.
    """
    from repro.data.loader import IngestStats, read_jsonl

    engine = make_engine(spec)
    stats = IngestStats()
    slice_every = spec["slice_every"]
    pauses: List[Tuple[float, float]] = []
    slices: List[float] = []
    one_slice = (
        hostspeed.slice_seconds if spec["engine"] == "seq"
        else hostspeed.slice_every_core
    )

    def stream() -> Iterator[Any]:
        tweets = read_jsonl(spec["path"], stats=stats)
        for index, tweet in enumerate(tweets):
            if index % slice_every == 0:
                paused_at = perf_counter()
                slices.append(one_slice())
                pauses.append((paused_at, perf_counter()))
            yield tweet

    ready = perf_counter()
    try:
        result = engine.run(stream())
        end = perf_counter()
        slices.append(one_slice())
        outcome = engine_outcome(engine, result)
    finally:
        close_engine(engine)
    resumes = [resumed for _, resumed in pauses]
    stops = [paused for paused, _ in pauses[1:]] + [end]
    outcome.update(cpu_and_rss())
    outcome.update(
        wall_s=(end - ready) - sum(b - a for a, b in pauses),
        startup_s=ready - spec["spawned_at"],
        n_ingested=stats.n_read,
        stretch_ms=[(b - a) * 1e3 for a, b in zip(resumes, stops)],
        slices=slices,
    )
    # The slices' own CPU is not the program's (a micro-batch slice is
    # the mean of one per core).
    per_slice = 1 if spec["engine"] == "seq" else len(os.sched_getaffinity(0))
    outcome["cpu_s"] -= sum(slices) * per_slice
    return outcome


def main(argv: List[str]) -> int:
    task, spec = argv[1], json.loads(argv[2])
    check_checkout()
    if task == "gen_train":
        result = task_gen_train(spec)
    elif task == "train_rep":
        result = task_train_rep(spec)
    elif task == "trace_core":
        from layers import task_trace_core

        result = task_trace_core(spec)
    elif task == "trace_mb":
        from layers import task_trace_mb

        result = task_trace_mb(spec)
    elif task == "serve":
        from serving import task_serve

        result = task_serve(spec)
    else:
        raise SystemExit(f"unknown task {task!r}")
    sys.stdout.write(RESULT_MARKER + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Model digests and the deterministic chaos scenario.

:func:`model_state_digest` hashes a model's full serialized state, so
two runs can be compared bit for bit (the chaos suite and the perf
ledger both check digests). :func:`run_chaos_scenario` drives a
micro-batch run through a seeded storm of partition faults and reports
whether it healed to the fault-free digest.

The simulated single server that the overload and latency experiments
replay against is :func:`repro.reliability.overload.serve_backlog`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.data.tweet import Tweet


def model_state_digest(model: object) -> str:
    """Stable content hash of a model's full serialized state.

    Two engines whose models digest identically have bit-identical
    weights, counters, and structure — the equivalence the chaos suite
    asserts between faulted and fault-free runs.
    """
    import hashlib
    import json

    from repro.streamml.serialize import model_to_dict

    payload = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class ChaosReport:
    """Outcome of one :func:`run_chaos_scenario` execution."""

    n_tweets: int
    n_batches: int
    n_injected: int
    elapsed_s: float
    n_retries: int
    n_quarantined: int
    n_partition_timeouts: int
    n_speculative_launches: int
    n_speculative_wins: int
    n_pool_rebuilds: int
    final_f1: float
    model_digest: str
    #: One-look operational summary (see :class:`repro.obs.slo.Scorecard`).
    scorecard: Dict[str, Any] = field(default_factory=dict)
    #: Flight-recorder incident dumps written during the run.
    flight_dumps: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable view (CI smoke checks, bench summaries)."""
        return {
            "n_tweets": self.n_tweets,
            "n_batches": self.n_batches,
            "n_injected": self.n_injected,
            "elapsed_s": self.elapsed_s,
            "n_retries": self.n_retries,
            "n_quarantined": self.n_quarantined,
            "n_partition_timeouts": self.n_partition_timeouts,
            "n_speculative_launches": self.n_speculative_launches,
            "n_speculative_wins": self.n_speculative_wins,
            "n_pool_rebuilds": self.n_pool_rebuilds,
            "final_f1": self.final_f1,
            "model_digest": self.model_digest,
            "scorecard": dict(self.scorecard),
            "flight_dumps": list(self.flight_dumps),
        }


def run_chaos_scenario(
    tweets: Sequence[Tweet],
    config: Optional[object] = None,
    *,
    fault_kind: str = "worker_hang",
    every_n_calls: int = 4,
    n_partitions: int = 2,
    batch_size: int = 500,
    runner: str = "processes",
    n_workers: int = 2,
    partition_deadline_s: float = 5.0,
    speculate: Optional[float] = None,
    max_retries: int = 3,
    seed: int = 11,
    hang_s: float = 30.0,
    slow_s: float = 0.25,
    max_rebuilds_per_run: int = 1,
    flight_dir: Optional[str] = None,
    pipelined: bool = False,
) -> ChaosReport:
    """Drive a micro-batch run through a seeded partition-fault storm.

    Every ``every_n_calls``-th runner call injects one ``fault_kind``
    fault (cycling deterministically over the partitions), so the run
    exercises the full self-healing path: partition deadlines catch the
    hangs, pool rebuilds replace killed workers, per-partition retries
    re-run the affected slices, and — because engine-level retries
    advance the injector's call index past the faulty one — every batch
    eventually completes with the *same* merged state a fault-free run
    produces. ``every_n_calls`` must be >= 2 so a retry lands on a
    clean call index.

    Fault decisions ride in the pickled task, so a resubmit *within*
    the same runner call re-triggers the same fault; recovery comes
    from the engine's retry (a fresh call), which is why
    ``max_rebuilds_per_run`` defaults low — burning the rebuild budget
    fast surfaces ``worker_lost`` to the engine without extra forks.

    With ``every_n_calls <= 0``, no injector is attached: that is the
    fault-free baseline the chaos tests compare digests against.

    ``flight_dir`` attaches a :class:`~repro.obs.recorder.FlightRecorder`
    to the engine: every quarantine / pool rebuild / crash during the
    storm dumps the recent-event ring as JSONL into that directory, and
    the report lists the dump files.

    ``pipelined`` runs the storm through the engine's double-buffered
    path — the chaos suite asserts its digest matches the synchronous
    (and fault-free) runs, pinning the overlap as bit-exact under
    faults too.
    """
    from repro.core.config import PipelineConfig
    from repro.engine.microbatch import MicroBatchEngine
    from repro.engine.runners import ProcessPoolRunner, make_runner
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import Scorecard
    from repro.reliability.deadletter import DeadLetterQueue
    from repro.reliability.faults import FaultInjectingRunner, FaultInjector
    from repro.reliability.supervisor import RetryPolicy

    if every_n_calls == 1:
        raise ValueError(
            "every_n_calls must be >= 2 (a retry must be able to land "
            "on a clean call index) or <= 0 for the fault-free baseline"
        )
    if runner == "processes":
        base: object = ProcessPoolRunner(
            n_processes=n_workers,
            max_rebuilds_per_run=max_rebuilds_per_run,
        )
    else:
        base = make_runner(runner, n_workers)
    injector: Optional[FaultInjector] = None
    exec_runner = base
    if every_n_calls > 0:
        # One faulty partition per every_n_calls-th call, cycling over
        # partitions so each fault domain gets exercised.
        schedule = {
            call: ((call // every_n_calls) % n_partitions,)
            for call in range(every_n_calls - 1, 10_000, every_n_calls)
        }
        injector = FaultInjector(
            schedule=schedule,
            seed=seed,
            transient=True,
            kind=fault_kind,
            hang_s=hang_s,
            slow_s=slow_s,
        )
        exec_runner = FaultInjectingRunner(base, injector, owns_inner=True)
    dead_letters = DeadLetterQueue()
    policy = RetryPolicy(
        max_retries=max_retries,
        base_delay_s=0.0,
        jitter=0.0,
        seed=seed,
        sleep=lambda _s: None,
    )
    recorder = (
        FlightRecorder(dump_dir=flight_dir)
        if flight_dir is not None
        else None
    )
    engine = MicroBatchEngine(
        config if config is not None else PipelineConfig(n_classes=2),
        n_partitions=n_partitions,
        batch_size=batch_size,
        runner=exec_runner,  # type: ignore[arg-type]
        retry_policy=policy,
        dead_letters=dead_letters,
        partition_deadline_s=partition_deadline_s,
        speculate=speculate,
        recorder=recorder,
        pipelined=pipelined,
    )
    started = time.perf_counter()
    try:
        result = engine.run(tweets)
        digest = model_state_digest(engine.model)
        registry = engine.metrics
        elapsed_s = time.perf_counter() - started
        scorecard = Scorecard.from_registry(
            registry,
            f1=float(result.metrics.get("f1", float("nan"))),
            throughput=(
                len(tweets) / elapsed_s if elapsed_s > 0 else float("nan")
            ),
        )
        flight_dumps = []
        if recorder is not None and recorder.dump_dir is not None:
            flight_dumps = sorted(
                str(p) for p in recorder.dump_dir.glob("flight-*.jsonl")
            )
        report = ChaosReport(
            n_tweets=len(tweets),
            n_batches=len(result.batches),
            n_injected=injector.n_injected if injector is not None else 0,
            elapsed_s=elapsed_s,
            n_retries=result.n_retries,
            n_quarantined=result.n_quarantined,
            n_partition_timeouts=int(
                registry.total("partition_timeouts_total")
            ),
            n_speculative_launches=int(
                registry.total("speculative_launches_total")
            ),
            n_speculative_wins=int(
                registry.total("speculative_wins_total")
            ),
            n_pool_rebuilds=int(registry.total("pool_rebuilds_total")),
            final_f1=float(result.metrics.get("f1", 0.0)),
            model_digest=digest,
            scorecard=scorecard.as_dict(),
            flight_dumps=flight_dumps,
        )
    finally:
        engine.close()
        exec_runner.close()  # type: ignore[union-attr]
    return report

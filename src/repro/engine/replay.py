"""Stream replay and end-to-end latency measurement.

"Real-time" detection is a latency claim, not just a throughput claim:
an alert is only useful if it fires moments after the tweet is posted.
This module replays a recorded tweet stream against the pipeline at a
configurable arrival rate — in *simulated* time by default, so tests
and benches stay fast and deterministic — and tracks per-tweet
detection latency (arrival → classified) plus queueing behaviour when
the offered rate exceeds the pipeline's service rate.

The simulation is a simple single-server queue fed by the arrival
process: each tweet needs ``service_time`` seconds of pipeline compute
(measured, or supplied), waits behind earlier tweets, and its latency
is (completion - arrival). This is exactly the back-pressure behaviour
a single-node deployment exhibits, and it shows the crossover where a
configuration stops being real-time (utilization >= 1).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.data.tweet import Tweet
from repro.obs.metrics import MetricsRegistry
from repro.reliability.overload import BoundedIngestQueue, OverloadController
from repro.streamml.stats import percentile


@dataclass
class LatencyReport:
    """Latency distribution of one replay."""

    n_tweets: int
    offered_rate: float
    service_rate: float
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    max_latency_s: float
    max_queue_depth: int

    @property
    def utilization(self) -> float:
        """Offered load relative to capacity (>= 1 means unstable).

        ``nan`` when the service rate is unmeasured (zero or ``nan``):
        a report with no timing information must not claim either
        stability or overload.
        """
        if math.isnan(self.service_rate) or self.service_rate <= 0:
            return float("nan")
        return self.offered_rate / self.service_rate

    @property
    def is_real_time(self) -> bool:
        """Whether the queue is stable (latency does not grow unboundedly)."""
        return self.utilization < 1.0


class StreamReplayer:
    """Replays tweets at a fixed rate against a per-tweet processor.

    Args:
        process: callable invoked once per tweet (the pipeline's
            ``process``); its measured cost defines the service rate
            unless ``service_time_s`` is given.
        service_time_s: fixed per-tweet service time for the queueing
            simulation; ``None`` measures each call with a wall clock.
        metrics: optional registry; each replay records its simulated
            latencies into ``replay_latency_seconds`` and measured
            service times into ``replay_service_seconds`` histograms.
            The :class:`LatencyReport` itself always uses exact sorted
            percentiles over the full sample — the registry view is for
            export alongside the rest of the run's telemetry.
        clock: timing source for measured service times (defaults to
            ``time.perf_counter``). Inject a fake clock to make measured
            replays fully deterministic.
    """

    def __init__(
        self,
        process: Callable[[Tweet], object],
        service_time_s: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.process = process
        self.service_time_s = service_time_s
        self.metrics = metrics
        self.clock = clock

    def replay(
        self,
        tweets: Iterable[Tweet],
        arrival_rate: float,
    ) -> LatencyReport:
        """Replay a stream arriving at ``arrival_rate`` tweets/second.

        Time is simulated: tweet *i* arrives at ``i / arrival_rate``;
        the single server processes tweets FIFO, each costing its
        (measured or fixed) service time. Latency is completion minus
        arrival.
        """
        if arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        latencies: List[float] = []
        service_times: List[float] = []
        server_free_at = 0.0
        max_queue_depth = 0
        # Non-decreasing: one FIFO server finishes jobs in arrival order.
        completions: List[float] = []
        for index, tweet in enumerate(tweets):
            arrival = index / arrival_rate
            if self.service_time_s is None:
                started = self.clock()
                self.process(tweet)
                service = self.clock() - started
            else:
                self.process(tweet)
                service = self.service_time_s
            service_times.append(service)
            start = max(arrival, server_free_at)
            completion = start + service
            server_free_at = completion
            latencies.append(completion - arrival)
            completions.append(completion)
            # Queue depth at this arrival: completed jobs leave.
            queue_depth = len(completions) - bisect_right(completions, arrival)
            max_queue_depth = max(max_queue_depth, queue_depth)
        if not latencies:
            raise ValueError("cannot replay an empty stream")
        if self.metrics is not None:
            latency_hist = self.metrics.histogram("replay_latency_seconds")
            service_hist = self.metrics.histogram("replay_service_seconds")
            for latency, service in zip(latencies, service_times):
                latency_hist.observe(latency)
                service_hist.observe(service)
        mean_service = sum(service_times) / len(service_times)
        return LatencyReport(
            n_tweets=len(latencies),
            offered_rate=arrival_rate,
            service_rate=(
                1.0 / mean_service if mean_service > 0 else float("nan")
            ),
            mean_latency_s=sum(latencies) / len(latencies),
            p50_latency_s=percentile(latencies, 50),
            p95_latency_s=percentile(latencies, 95),
            p99_latency_s=percentile(latencies, 99),
            max_latency_s=max(latencies),
            max_queue_depth=max_queue_depth,
        )


@dataclass
class OverloadReport:
    """Outcome of one closed-loop (queue-fed) replay.

    The accounting invariant every replay must satisfy:
    ``n_offered == n_processed + n_shed`` (validation-quarantined
    tweets, if any, are the caller's to add — this layer sees only
    clean traffic).
    """

    n_offered: int
    n_processed: int
    n_shed: int
    n_batches: int
    max_queue_depth: int
    max_backlog_fraction: float
    n_deadline_misses: int
    final_tier: int
    max_tier_reached: int
    makespan_s: float
    queue_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_fraction(self) -> float:
        """Share of offered traffic the queue shed."""
        if self.n_offered == 0:
            return 0.0
        return self.n_shed / self.n_offered

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (CI smoke output, bench records)."""
        return {
            "n_offered": self.n_offered,
            "n_processed": self.n_processed,
            "n_shed": self.n_shed,
            "shed_fraction": self.shed_fraction,
            "n_batches": self.n_batches,
            "max_queue_depth": self.max_queue_depth,
            "max_backlog_fraction": self.max_backlog_fraction,
            "n_deadline_misses": self.n_deadline_misses,
            "final_tier": self.final_tier,
            "max_tier_reached": self.max_tier_reached,
            "makespan_s": self.makespan_s,
            "queue_counters": dict(self.queue_counters),
        }


def replay_closed_loop(
    arrivals: Iterable[Tuple[Tweet, float]],
    queue: BoundedIngestQueue,
    process_batch: Callable[[List[Tweet]], object],
    controller: Optional[OverloadController] = None,
    batch_size: int = 500,
    service_time_s: Optional[Union[float, Dict[int, float]]] = None,
    clock: Callable[[], float] = time.perf_counter,
) -> OverloadReport:
    """Replay timestamped arrivals through a bounded queue, closed-loop.

    A single simulated server drains the queue in batches while
    arrivals accumulate: each ``(tweet, arrival_s)`` is offered at its
    timestamp, and whenever the server is free before the next arrival
    it drains up to the current batch size and "works" for the batch's
    duration — measured via ``clock`` around ``process_batch``, or
    modeled as ``len(batch) * service_time_s`` (a float, or a dict from
    degrade-tier level to per-tweet seconds). Backlog therefore builds
    exactly when the offered rate exceeds the service rate, which is
    what exercises shedding and the overload controller.

    With a ``controller``, each batch's (simulated) duration feeds
    :meth:`~repro.reliability.overload.OverloadController.observe_batch`
    and the next drain uses the controller's adjusted batch size; the
    feature-tier decision is the *caller's* to apply inside
    ``process_batch`` (engines attach the controller themselves — this
    standalone loop is for benches and smoke tests).

    Returns an :class:`OverloadReport`; ``queue`` is left drained.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_batches = 0
    n_processed = 0
    n_misses_before = (
        controller.n_deadline_misses if controller is not None else 0
    )
    max_backlog_fraction = 0.0
    server_free_s = 0.0

    def current_batch_size() -> int:
        return controller.batch_size if controller is not None else batch_size

    def service_batch(start_s: float) -> float:
        """Drain + process one batch; returns the new server-free time."""
        nonlocal n_batches, n_processed
        # Pressure is judged on the backlog the server *faced*, not the
        # post-drain remainder — sampling after the drain would hide a
        # queue that refills between batches.
        fraction_before = queue.depth_fraction
        batch = queue.drain(current_batch_size())
        if not batch:
            return start_s
        if service_time_s is None:
            t0 = clock()
            process_batch(batch)
            duration = clock() - t0
        else:
            process_batch(batch)
            if isinstance(service_time_s, dict):
                tier = int(controller.tier) if controller is not None else 0
                per_tweet = service_time_s[tier]
            else:
                per_tweet = service_time_s
            duration = len(batch) * per_tweet
        n_batches += 1
        n_processed += len(batch)
        if controller is not None:
            controller.observe_batch(
                duration, queue_fraction=fraction_before
            )
        return start_s + duration

    for tweet, arrival_s in arrivals:
        # Let the server catch up on backlog it had time for.
        while len(queue):
            start_s = max(server_free_s, queue.peek_arrival() or 0.0)
            if start_s >= arrival_s:
                break
            server_free_s = service_batch(start_s)
        queue.offer(tweet, arrival_s=arrival_s)
        max_backlog_fraction = max(max_backlog_fraction, queue.depth_fraction)
    while len(queue):
        start_s = max(server_free_s, queue.peek_arrival() or 0.0)
        server_free_s = service_batch(start_s)
    return OverloadReport(
        n_offered=queue.n_offered,
        n_processed=n_processed,
        n_shed=queue.n_shed,
        n_batches=n_batches,
        max_queue_depth=queue.max_depth,
        max_backlog_fraction=max_backlog_fraction,
        n_deadline_misses=(
            controller.n_deadline_misses - n_misses_before
            if controller is not None
            else 0
        ),
        final_tier=int(controller.tier) if controller is not None else 0,
        max_tier_reached=(
            int(controller.max_tier_reached) if controller is not None else 0
        ),
        makespan_s=server_free_s,
        queue_counters=queue.as_counters(),
    )


# ----------------------------------------------------------------------
# Deterministic chaos scenario (partition fault domains end to end)
# ----------------------------------------------------------------------

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

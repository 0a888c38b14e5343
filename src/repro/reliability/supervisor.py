"""Stream supervision: retry policy, periodic checkpoints, resume.

Spark Streaming's production story is that a driver can die mid-stream
and the job resumes from its last checkpoint with no observable
difference. :class:`StreamSupervisor` provides that contract for our
engines:

* it drives any engine (micro-batch or sequential) over a tweet
  stream chunk by chunk;
* it parses JSONL records and validates tweets at ingest, quarantining
  unparseable lines and structurally corrupt tweets into a dead-letter
  queue *before* batch assembly — so the surviving clean tweets form
  exactly the same batches a fault-free run over the clean subset
  would see (the chaos equivalence tests assert this);
* every ``checkpoint_every`` chunks it atomically writes the complete
  engine state plus its own cursor to ``checkpoint_dir``;
* :meth:`StreamSupervisor.resume` rebuilds the supervisor from the
  last good checkpoint; the next :meth:`run` over the *same* stream
  skips the already-consumed prefix and continues such that the final
  metrics and alert list equal an uninterrupted run's exactly.

The resume contract assumes a replayable source (the same stream can
be re-iterated from the start — a JSONL file, a Kafka topic with
offsets, our deterministic generators). That is the same assumption
Spark's checkpoint recovery makes.

:class:`RetryPolicy` configures the micro-batch engine's transient
failure handling: exponential backoff with seeded jitter, determinism
preserved run-to-run.
"""

from __future__ import annotations

import inspect
import json
import random
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.core.checkpoint import (
    RetiredLayoutError,
    atomic_write_text,
    engine_from_dict,
    engine_to_dict,
)
from repro.data.tweet import Tweet, TweetItem, TweetLine
from repro.engine.protocol import Engine
from repro.engine.runners import Runner
from repro.obs.console import OpsConsole
from repro.obs.export import TelemetrySink
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsSnapshot
from repro.obs.recorder import FlightRecorder
from repro.obs.slo import Scorecard, SLOTracker
from repro.reliability.deadletter import (
    CircuitBreaker,
    CircuitOpenError,
    DeadLetterQueue,
    StreamHealth,
    validate_tweet,
)
from repro.reliability.overload import (
    BoundedIngestQueue,
    OverloadController,
    serve_backlog,
)
from repro.streamml.serialize import SerializationError

#: Version 5 adds the optional ``slo`` section (objective definitions
#: + rolling burn-rate windows + firing/alert state) to version 4, so
#: SLO alerting resumes bit-exactly. The current version and one back
#: are read — a v4 run simply has no SLO state; anything older raises.
SUPERVISOR_CHECKPOINT_VERSION = 5
_READABLE_CHECKPOINT_VERSIONS = (4, 5)
CHECKPOINT_FILENAME = "checkpoint.json"
#: History checkpoints ride alongside the rolling file as
#: ``checkpoint-NNNNNNNN.json`` (chunk-stamped); resume falls back
#: over them newest-first when a file is truncated or bit-flipped.
CHECKPOINT_HISTORY_PREFIX = "checkpoint-"
DEFAULT_KEEP_CHECKPOINTS = 3

logger = get_logger("supervisor")

PathLike = Union[str, Path]
T = TypeVar("T")

#: Constructor options :meth:`StreamSupervisor.resume` takes from the
#: checkpoint rather than from its caller.
_RESTORED_OPTIONS = ("chunk_size", "ingest_queue", "slos")


@dataclass
class RetryPolicy:
    """Exponential backoff with seeded jitter for transient failures.

    Attempt ``a`` (0-based) sleeps
    ``min(base_delay_s * multiplier**a, max_delay_s)`` scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1 + jitter]``
    with a seeded RNG, so retry timing is reproducible. ``sleep`` is
    injectable so tests run without wall-clock delays.
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.1
    seed: int = 17
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """The delay before retry number ``attempt + 1``."""
        delay = min(
            self.base_delay_s * self.multiplier ** attempt, self.max_delay_s
        )
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(delay, 0.0)


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------

@dataclass
class SupervisedRun:
    """Outcome of a supervised run: the engine result plus health."""

    result: Any  # EngineResult or SequentialRunResult
    health: StreamHealth
    dead_letters: DeadLetterQueue = field(default_factory=DeadLetterQueue)
    #: True when the run ended early via :meth:`StreamSupervisor.
    #: request_stop` (graceful drain) rather than stream exhaustion.
    stopped: bool = False

    @property
    def metrics(self) -> Dict[str, float]:
        return self.result.metrics


class _ChunkBuffer(list):
    """What :meth:`StreamSupervisor.run` buffers into without an ingest
    queue: the same ``offer``/``drain`` FIFO, unbounded, never shedding."""

    offer = list.append

    def drain(self, n: int) -> List[Tweet]:
        chunk = self[:n]
        del self[:n]
        return chunk


class StreamSupervisor:
    """Drives an engine over a stream with quarantine and checkpoints.

    Args:
        engine: any :class:`~repro.engine.protocol.Engine` (construct it
            with a retry policy / dead-letter queue for engine-level
            fault handling).
        checkpoint_dir: directory for the rolling ``checkpoint.json``
            (atomic writes; ``None`` disables checkpointing).
        checkpoint_every: write a checkpoint after every N chunks.
        chunk_size: tweets per engine call; defaults to the engine's
            ``batch_size``.
        dead_letters: quarantine queue for ingest-validation failures
            (a fresh bounded queue by default). Every consumed tweet is
            validated at ingest, before batch assembly, so corrupt
            records never skew batch composition.
        max_poison_rate: when set, a circuit breaker fails the run once
            the quarantined fraction of consumed tweets exceeds this.
        telemetry: optional :class:`~repro.obs.export.TelemetrySink`;
            the supervisor emits checkpoint/quarantine/breaker events
            and periodic metric snapshots into it. The sink's lifecycle
            belongs to the caller.
        metrics_every: emit a snapshot event every N chunks (defaults
            to ``checkpoint_every``; only meaningful with ``telemetry``).
        ingest_queue: optional
            :class:`~repro.reliability.overload.BoundedIngestQueue`.
            When set, :meth:`run` routes every validated tweet through
            the queue before batch assembly — the queue's shedding
            policy, not an unbounded buffer, decides what survives a
            burst — and :meth:`run_timed` becomes available for
            closed-loop (arrival-timestamped) replay. Queue and
            controller state ride in the checkpoint (v3), so a crash
            mid-overload resumes exactly.
        slos: optional :class:`~repro.obs.slo.SLOTracker`; the
            supervisor feeds it one sample per chunk, its burn-rate
            windows and alert state ride in the checkpoint (v5), and
            :meth:`scorecard` folds its alert counts into the run's
            scorecard.
        console: optional :class:`~repro.obs.console.OpsConsole`,
            redrawn once per chunk with the registry's current view.
        recorder: optional :class:`~repro.obs.recorder.FlightRecorder`;
            the supervisor records one event per chunk and auto-dumps
            the ring when a run crashes. (Hand the same recorder to the
            engine for batch-level quarantine/pool-rebuild dumps.)
        keep_checkpoints: chunk-stamped history checkpoints retained for
            corrupt-file fallback.
        snapshot_store: optional
            :class:`~repro.serve.snapshot.SnapshotStore` (duck typed:
            anything with ``publish(payload, meta=...)``); every
            checkpoint also publishes a verified serving snapshot, so a
            live server hot-swaps models while training continues.
    """

    def __init__(
        self,
        engine: Engine,
        checkpoint_dir: Optional[PathLike] = None,
        checkpoint_every: int = 10,
        chunk_size: Optional[int] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_poison_rate: Optional[float] = None,
        telemetry: Optional[TelemetrySink] = None,
        metrics_every: Optional[int] = None,
        ingest_queue: Optional[BoundedIngestQueue] = None,
        slos: Optional[SLOTracker] = None,
        console: Optional[OpsConsole] = None,
        recorder: Optional[FlightRecorder] = None,
        keep_checkpoints: int = DEFAULT_KEEP_CHECKPOINTS,
        snapshot_store: Optional[Any] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        self.engine = engine
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_every = checkpoint_every
        if chunk_size is None:
            chunk_size = engine.batch_size
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.chunk_size = chunk_size
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterQueue()
        )
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(max_failure_rate=max_poison_rate)
            if max_poison_rate is not None
            else None
        )
        if metrics_every is not None and metrics_every < 1:
            raise ValueError("metrics_every must be >= 1")
        self.telemetry = telemetry
        self.metrics_every = (
            metrics_every if metrics_every is not None else checkpoint_every
        )
        self.ingest_queue = ingest_queue
        self.slo_tracker = slos
        self.console = console
        self.recorder = recorder
        self.keep_checkpoints = keep_checkpoints
        self.snapshot_store = snapshot_store
        self._stop_requested = False
        self._server_free_s = 0.0  # simulated-clock cursor (run_timed)
        # Holds the controller while run_timed's model mode detaches it
        # from the engine, so checkpoints still capture its state.
        self._detached_controller: Optional[OverloadController] = None
        self._cursor = 0  # tweets drawn from the stream, incl. quarantined
        self._chunks_done = 0
        self._n_poisoned = 0  # quarantined at ingest validation
        self.n_checkpoints = 0
        self.last_checkpoint_chunk: Optional[int] = None
        # Shared registry: the engine (and its pipeline/partitions)
        # already report into it; the supervisor adds the ingest-side
        # counters and reads health back out.
        self.metrics = engine.metrics
        self._m_consumed = self.metrics.counter("tweets_consumed_total")
        self._m_checkpoints = self.metrics.counter("checkpoints_total")
        # Registered up front: every checkpoint carries it.
        self.metrics.counter(
            "tweets_quarantined_total",
            engine=engine.kind,
            stage="ingest-validate",
        )

    @property
    def controller(self) -> Optional[OverloadController]:
        """The engine's overload controller, if one is attached."""
        if self._detached_controller is not None:
            return self._detached_controller
        return self.engine.controller

    # -- checkpointing --------------------------------------------------

    @property
    def checkpoint_path(self) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / CHECKPOINT_FILENAME

    def write_checkpoint(self) -> Optional[int]:
        """Atomically persist supervisor + engine state; returns bytes.

        The engine is drained first: the cursor already counts a
        pipelined engine's in-flight batch, so the snapshot must include
        its merges — drain-then-write is what makes checkpoint/resume
        exactly-once under pipelining.
        """
        path = self.checkpoint_path
        if path is None:
            return None
        self.engine.drain()
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "supervisor_version": SUPERVISOR_CHECKPOINT_VERSION,
            "cursor": self._cursor,
            "chunks_done": self._chunks_done,
            "n_poisoned": self._n_poisoned,
            "chunk_size": self.chunk_size,
            "breaker": (
                {"n_ok": self.breaker.n_ok, "n_failed": self.breaker.n_failed}
                if self.breaker is not None
                else None
            ),
            "engine": engine_to_dict(self.engine),
            # Exact registry state (sketches included): a resumed run's
            # registry continues from precisely this point.
            "metrics": self.metrics.snapshot().as_dict(exact=True),
        }
        if self.slo_tracker is not None:
            # Full tracker state (definitions + windows + firing set):
            # a resumed run's burn rates and alert transitions continue
            # bit-exactly from this cut.
            payload["slo"] = self.slo_tracker.to_dict()
        controller = self.controller
        if self.ingest_queue is not None or controller is not None:
            payload["overload"] = {
                "queue": (
                    self.ingest_queue.to_dict()
                    if self.ingest_queue is not None
                    else None
                ),
                "controller": (
                    controller.to_dict() if controller is not None else None
                ),
                "server_free_s": self._server_free_s,
            }
        text = json.dumps(payload, separators=(",", ":"))
        # History first, rolling file last: readers always find the
        # newest state at the canonical name, and resume can fall back
        # over the chunk-stamped history when a file is corrupt.
        history = self.checkpoint_dir / (
            f"{CHECKPOINT_HISTORY_PREFIX}{self._chunks_done:08d}.json"
        )
        atomic_write_text(history, text)
        size = atomic_write_text(path, text)
        self._gc_checkpoints()
        self.n_checkpoints += 1
        self.last_checkpoint_chunk = self._chunks_done
        self._m_checkpoints.inc()
        logger.info(
            "checkpoint written: chunk=%d cursor=%d bytes=%d",
            self._chunks_done, self._cursor, size,
        )
        if self.telemetry is not None:
            self.telemetry.event(
                "checkpoint",
                chunk=self._chunks_done,
                cursor=self._cursor,
                bytes=size,
            )
        if self.snapshot_store is not None:
            self._publish_snapshot()
        return size

    def _gc_checkpoints(self) -> None:
        """Bound history retention: keep the newest K, unlink the rest."""
        assert self.checkpoint_dir is not None
        stale = sorted(
            self.checkpoint_dir.glob(f"{CHECKPOINT_HISTORY_PREFIX}*.json"),
            reverse=True,
        )[self.keep_checkpoints:]
        for path in stale:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            logger.debug("checkpoint history GC: %s", path.name)

    def _publish_snapshot(self) -> None:
        """Publish the engine's scoring state to the snapshot store."""
        from repro.serve.snapshot import payload_from_source

        try:
            info = self.snapshot_store.publish(
                payload_from_source(self.engine),
                meta={"chunk": self._chunks_done, "cursor": self._cursor},
            )
        except Exception:
            # Publishing is a best-effort side channel; a full disk on
            # the store must not kill the training run.
            logger.exception("snapshot publish failed; training continues")
            return
        if self.telemetry is not None:
            self.telemetry.event(
                "snapshot_published",
                version=info.version,
                chunk=self._chunks_done,
            )

    @classmethod
    def resume(
        cls,
        checkpoint_dir: PathLike,
        runner: Optional[Union[Runner, str]] = None,
        n_workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        partition_deadline_s: Optional[float] = None,
        **options: Any,
    ) -> "StreamSupervisor":
        """Rebuild a supervisor from the newest *verifiable* checkpoint.

        The rolling ``checkpoint.json`` is tried first, then the
        chunk-stamped history files newest-first: a truncated or
        bit-flipped file is skipped with one WARNING (and counted in
        ``checkpoint_corrupt_total``) and the next older candidate is
        tried — corrupt state costs recent progress, never the whole
        run. :class:`~repro.streamml.serialize.SerializationError` is
        raised when *no* retained file verifies, and at once on a file
        in a retired layout
        (:class:`~repro.core.checkpoint.RetiredLayoutError`), which is
        not corruption.

        ``runner``, ``n_workers``, ``retry_policy`` and
        ``partition_deadline_s`` wire a rebuilt micro-batch engine (see
        :func:`~repro.core.checkpoint.engine_from_dict`). ``options``
        are the constructor's keyword options, passed on unchanged
        (``dead_letters``, ``max_poison_rate`` and ``recorder`` reach
        the engine too); the chunk size, ingest queue and SLO tracker
        come from the checkpoint.

        The returned supervisor's next :meth:`run` call must receive
        the *same replayable stream* the original run did; it skips the
        already-consumed prefix and continues, reproducing the
        uninterrupted run's final metrics and alert list exactly.
        """
        accepted = set(inspect.signature(cls).parameters) - {
            "engine", "checkpoint_dir", *_RESTORED_OPTIONS
        }
        unknown = sorted(set(options) - accepted)
        if unknown:
            raise TypeError(f"resume() got unexpected options: {unknown}")
        wiring = dict(
            runner=runner,
            n_workers=n_workers,
            retry_policy=retry_policy,
            partition_deadline_s=partition_deadline_s,
            dead_letters=options.get("dead_letters"),
            max_poison_rate=options.get("max_poison_rate"),
            recorder=options.get("recorder"),
        )
        directory = Path(checkpoint_dir)
        candidates = [directory / CHECKPOINT_FILENAME]
        candidates.extend(sorted(
            directory.glob(f"{CHECKPOINT_HISTORY_PREFIX}*.json"),
            reverse=True,
        ))
        candidates = [path for path in candidates if path.exists()]
        if not candidates:
            raise FileNotFoundError(
                f"no checkpoint files in {directory}"
            )
        failures: List[Tuple[str, BaseException]] = []
        supervisor: Optional["StreamSupervisor"] = None
        resumed_from: Optional[Path] = None
        for candidate in candidates:
            try:
                payload = json.loads(
                    candidate.read_text(encoding="utf-8")
                )
                supervisor = cls._resume_from_payload(
                    payload, checkpoint_dir, wiring, options
                )
                resumed_from = candidate
                break
            except RetiredLayoutError:
                raise
            except Exception as exc:
                failures.append((candidate.name, exc))
        if supervisor is None:
            detail = "; ".join(
                f"{name}: {type(exc).__name__}: {exc}"
                for name, exc in failures
            )
            raise SerializationError(
                f"no verifiable checkpoint in {directory}: {detail}"
            )
        if failures:
            logger.warning(
                "skipped %d corrupt checkpoint file(s) (%s); resumed "
                "from %s",
                len(failures),
                ", ".join(name for name, _ in failures),
                resumed_from.name,
            )
            supervisor.metrics.counter("checkpoint_corrupt_total").inc(
                len(failures)
            )
            if supervisor.telemetry is not None:
                supervisor.telemetry.event(
                    "checkpoint_corrupt",
                    skipped=[name for name, _ in failures],
                    resumed_from=resumed_from.name,
                )
        return supervisor

    @classmethod
    def _resume_from_payload(
        cls,
        payload: Dict[str, Any],
        checkpoint_dir: PathLike,
        wiring: Dict[str, Any],
        options: Dict[str, Any],
    ) -> "StreamSupervisor":
        """Rebuild a supervisor from one parsed checkpoint payload."""
        version = payload.get("supervisor_version")
        if version not in _READABLE_CHECKPOINT_VERSIONS:
            raise SerializationError(
                f"unsupported supervisor checkpoint version {version!r}"
            )
        engine = engine_from_dict(payload["engine"], **wiring)
        metrics_payload = payload.get("metrics")
        if metrics_payload is not None:
            # The exact registry snapshot, loaded in place — the
            # engine's bound metric objects stay live.
            engine.metrics.restore(MetricsSnapshot.from_dict(metrics_payload))
        telemetry = options.get("telemetry")
        # Overload state (v3): rebuild queue backlog + controller
        # mid-episode and re-attach them, so the resumed run sheds,
        # degrades and recovers exactly as the crashed one would have.
        overload_payload = payload.get("overload")
        ingest_queue: Optional[BoundedIngestQueue] = None
        if overload_payload is not None:
            if overload_payload.get("queue") is not None:
                ingest_queue = BoundedIngestQueue.from_dict(
                    overload_payload["queue"],
                    metrics=engine.metrics,
                    telemetry=telemetry,
                )
            if overload_payload.get("controller") is not None:
                controller = OverloadController.from_dict(
                    overload_payload["controller"],
                    queue=ingest_queue,
                    metrics=engine.metrics,
                    telemetry=telemetry,
                )
                engine.controller = controller
                engine.apply(controller)
        # SLO state (v5): the tracker — definitions, rolling burn
        # windows, firing set, alert counts — comes back bit-exactly;
        # alert events from the resumed run go to the new sinks.
        slo_payload = payload.get("slo")
        slo_tracker: Optional[SLOTracker] = None
        if slo_payload is not None:
            sinks = [
                sink
                for sink in (telemetry, options.get("recorder"))
                if sink is not None
            ]
            slo_tracker = SLOTracker.from_dict(slo_payload, sinks=sinks)
        supervisor = cls(
            engine,
            checkpoint_dir=checkpoint_dir,
            chunk_size=int(payload["chunk_size"]),
            ingest_queue=ingest_queue,
            slos=slo_tracker,
            **options,
        )
        if overload_payload is not None:
            supervisor._server_free_s = float(
                overload_payload.get("server_free_s", 0.0)
            )
        logger.info(
            "resumed from checkpoint: cursor=%d chunks_done=%d",
            int(payload["cursor"]), int(payload["chunks_done"]),
        )
        supervisor._cursor = int(payload["cursor"])
        supervisor._chunks_done = int(payload["chunks_done"])
        supervisor._n_poisoned = int(payload["n_poisoned"])
        breaker_state = payload.get("breaker")
        if supervisor.breaker is not None and breaker_state is not None:
            supervisor.breaker.n_ok = int(breaker_state["n_ok"])
            supervisor.breaker.n_failed = int(breaker_state["n_failed"])
        return supervisor

    # -- driving --------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the running loop to stop gracefully (signal-safe).

        The ingest loop stops drawing new tweets at the next iteration,
        drains whatever is already buffered (partial chunk or ingest
        queue) through the engine, writes a final checkpoint — and a
        serving snapshot when a store is attached — and returns a
        :class:`SupervisedRun` with ``stopped=True``. Nothing already
        consumed is lost, and the cursor stays consistent, so a later
        :meth:`resume` + :meth:`run` over the same stream continues
        exactly. Safe to call from a signal handler: it only sets a
        flag.
        """
        if not self._stop_requested:
            logger.info("graceful stop requested; draining in-flight work")
        self._stop_requested = True

    def _current_chunk_size(self) -> int:
        """Chunk size for the next engine call.

        With an overload controller attached, its (possibly shrunk)
        batch size governs how much backlog each drain hands the
        engine; otherwise the static ``chunk_size`` does.
        """
        controller = self.controller
        if controller is not None:
            return controller.batch_size
        return self.chunk_size

    def run(self, tweets: Iterable[TweetItem]) -> SupervisedRun:
        """Supervise the engine over the stream (resuming if mid-way).

        Replays nothing twice: if this supervisor was resumed from a
        checkpoint (or a previous partial :meth:`run`), the first
        ``cursor`` tweets of the stream are skipped as already
        consumed. A final checkpoint is written on successful
        completion, so resuming a finished run is a no-op.

        Every validated tweet is offered to the ``ingest_queue`` — or,
        without one, to an unbounded buffer — and chunks are drained
        from it, so with a queue its shedding policy (not an unbounded
        list) decides what survives; shed tweets are counted consumed
        but never reach the engine.
        """
        buffer = (
            self.ingest_queue if self.ingest_queue is not None
            else _ChunkBuffer()
        )
        try:
            for item in self._remaining(tweets):
                tweet = self._admit(item)
                if tweet is None:
                    continue
                buffer.offer(tweet)
                while len(buffer) >= self._current_chunk_size():
                    self._process_chunk(
                        buffer.drain(self._current_chunk_size())
                    )
            while len(buffer):
                self._process_chunk(buffer.drain(self._current_chunk_size()))
        except BaseException as exc:
            self._record_crash(exc)
            raise
        self.write_checkpoint()
        return self._finish()

    def run_timed(
        self,
        arrivals: Iterable[Tuple[TweetItem, float]],
        service_time_s: Optional[
            Union[float, Dict[int, float]]
        ] = None,
    ) -> SupervisedRun:
        """Closed-loop replay: arrivals carry timestamps, backlog builds.

        Each ``(tweet, arrival_s)`` pair is offered to the ingest queue
        at its (simulated) arrival time; whenever the simulated server
        (:func:`~repro.reliability.overload.serve_backlog`) is free and
        backlog is waiting, a chunk is drained and processed. Because the engine only consumes as fast as its
        (measured or modeled) service rate, a burst above capacity
        genuinely accumulates backlog, triggers shedding and drives the
        overload controller — the dynamics an open-loop ``run`` can
        never produce.

        Args:
            arrivals: timestamped stream, non-decreasing ``arrival_s``
                (e.g. :meth:`~repro.data.firehose.ArrivalSchedule.
                assign`).
            service_time_s: per-tweet service-time model. ``None``
                advances the simulated clock by each chunk's *measured*
                elapsed time (realistic mode). A float — or a dict
                mapping :class:`~repro.core.features.DegradeTier` level
                to float — makes batch durations a pure function of
                (size, tier): fully deterministic, reproducible across
                resume, and independent of host speed (test mode). In
                model mode the supervisor drives the controller with
                the *modeled* durations (the engine's controller hookup
                is bypassed so wall-clock noise never leaks in).

        Requires an ``ingest_queue``. Cursor semantics match
        :meth:`run`: resumed runs skip the already-offered prefix, and
        the pending backlog at checkpoint time is restored from the
        checkpoint itself.
        """
        queue = self.ingest_queue
        if queue is None:
            raise ValueError("run_timed requires an ingest_queue")
        controller = self.controller
        modeled = service_time_s is not None
        # In model mode the supervisor owns the control loop: detach
        # the controller from the engine so measured wall time never
        # feeds it, and apply its decisions by hand after each
        # simulated batch.
        if modeled and controller is not None:
            self._detached_controller = controller
            self.engine.controller = None
            self.engine.apply(controller)

        def serve(start_s: float) -> float:
            return self._timed_chunk(start_s, service_time_s, controller)

        try:
            for item, arrival_s in self._remaining(arrivals):
                # Catch up before admitting: a checkpoint written while
                # catching up must not count this tweet in the cursor.
                self._server_free_s = serve_backlog(
                    queue, self._server_free_s, serve, until_s=arrival_s
                )
                tweet = self._admit(item)
                if tweet is not None:
                    queue.offer(tweet, arrival_s=arrival_s)
            # Stream exhausted: drain the remaining backlog.
            self._server_free_s = serve_backlog(
                queue, self._server_free_s, serve
            )
            self.write_checkpoint()
            return self._finish()
        except BaseException as exc:
            self._record_crash(exc)
            raise
        finally:
            if modeled and controller is not None:
                self.engine.controller = controller
                self._detached_controller = None

    def _remaining(self, items: Iterable[T]) -> Iterator[T]:
        """The stream past the cursor, until a stop is requested."""
        iterator = iter(items)
        if self._cursor:
            for _ in islice(iterator, self._cursor):
                pass
        for item in iterator:
            if self._stop_requested:
                return
            yield item

    def _timed_chunk(
        self,
        start_s: float,
        service_time_s: Optional[Union[float, Dict[int, float]]],
        controller: Optional[OverloadController],
    ) -> float:
        """run_timed's ``serve``: drain one chunk, process it, return
        its measured or modeled duration."""
        queue = self.ingest_queue
        assert queue is not None
        # Judge pressure on the backlog the server faced, not the
        # post-drain remainder.
        fraction_before = queue.depth_fraction
        chunk = queue.drain(self._current_chunk_size())

        def settle(measured: float) -> float:
            duration = measured
            if service_time_s is not None:
                tier_level = (
                    int(controller.tier) if controller is not None else 0
                )
                if isinstance(service_time_s, dict):
                    per_tweet = service_time_s[tier_level]
                else:
                    per_tweet = service_time_s
                duration = len(chunk) * per_tweet
                if controller is not None:
                    # Model mode: the supervisor feeds the controller
                    # the modeled duration and applies its decisions.
                    controller.observe_batch(
                        duration, queue_fraction=fraction_before
                    )
                    self.engine.apply(controller)
            self._server_free_s = start_s + duration
            return duration

        return self._process_chunk(chunk, settle)

    def _record_crash(self, exc: BaseException) -> None:
        """Flight-record a dying run: the ring holds the lead-up."""
        if self.recorder is None:
            return
        self.recorder.event("crash", error=repr(exc))
        self.recorder.auto_dump("crash")

    def _admit(self, item: TweetItem) -> Optional[Tweet]:
        """Consume one item: advance the cursor, count it, parse it if
        it is a JSONL record, validate it.

        Returns the tweet, or ``None`` once it is quarantined (stage
        ``"ingest-parse"`` or ``"ingest-validate"``).
        """
        self._cursor += 1
        self._m_consumed.inc()
        stage, tweet_id = "ingest-parse", None
        try:
            if type(item) is TweetLine:
                item = item.parse(self.metrics)
            stage = "ingest-validate"
            tweet_id = getattr(item, "tweet_id", None)
            validate_tweet(item)
        except ValueError as exc:  # a line that is not a tweet, or poison
            self._n_poisoned += 1
            self.metrics.counter(
                "tweets_quarantined_total", engine=self.engine.kind,
                stage=stage,
            ).inc()
            self.dead_letters.add_failure(
                tweet_id,
                stage,
                exc,
                with_traceback=False,
            )
            logger.debug(
                "quarantined tweet %r at ingest: %s", tweet_id, exc
            )
            if self.telemetry is not None:
                self.telemetry.event(
                    "quarantine",
                    tweet_id=tweet_id,
                    stage=stage,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if self.breaker is not None:
                self.breaker.record(True)
                try:
                    self.breaker.check()
                except CircuitOpenError:
                    logger.warning(
                        "circuit breaker open: %.2f%% of %d consumed "
                        "tweets quarantined",
                        100.0 * self.breaker.failure_rate,
                        self.breaker.n_events,
                    )
                    if self.telemetry is not None:
                        self.telemetry.event(
                            "breaker_open",
                            failure_rate=self.breaker.failure_rate,
                            n_events=self.breaker.n_events,
                        )
                    raise
            return None
        if self.breaker is not None:
            self.breaker.record(False)
        return item

    def _process_chunk(
        self,
        chunk: List[Tweet],
        settle: Optional[Callable[[float], float]] = None,
    ) -> float:
        """The one per-chunk step of both runs; returns its duration.

        The engine processes the chunk; ``settle`` (run_timed's clock
        and controller bookkeeping) turns its elapsed seconds into the
        chunk's simulated duration before the per-chunk cadence runs,
        so a checkpoint written there sees the chunk's final state.
        """
        duration = self.engine.process_chunk(chunk)
        if settle is not None:
            duration = settle(duration)
        self._after_chunk()
        return duration

    def _after_chunk(self) -> None:
        """Per-chunk cadence: telemetry snapshots and checkpoints.

        Runs *after* all per-chunk state (engine, controller, simulated
        clock) is final, so any checkpoint written here captures a
        consistent cut a resumed run can continue from exactly. The SLO
        tracker samples here too — one sample per chunk, *before* any
        checkpoint write, so the persisted windows include the chunk
        that triggered the write.
        """
        self._chunks_done += 1
        if self.slo_tracker is not None:
            self.slo_tracker.observe(self.metrics)
        if self.recorder is not None:
            self.recorder.event(
                "chunk", chunk=self._chunks_done, cursor=self._cursor
            )
        if self.console is not None:
            self.console.tick(self.metrics, tracker=self.slo_tracker)
        if (
            self.telemetry is not None
            and self._chunks_done % self.metrics_every == 0
        ):
            self.telemetry.snapshot(
                self.metrics, chunk=self._chunks_done, cursor=self._cursor
            )
        if (
            self.checkpoint_dir is not None
            and self._chunks_done % self.checkpoint_every == 0
        ):
            self.write_checkpoint()

    def _finish(self) -> SupervisedRun:
        """Final health/telemetry/result assembly shared by both runs."""
        self.engine.drain()
        if self.console is not None:
            # Last frame unthrottled: the final counts always land.
            self.console.tick(
                self.metrics, tracker=self.slo_tracker, force=True
            )
        health = self.health()
        if self._stop_requested:
            logger.info(
                "graceful stop complete: cursor=%d chunks=%d",
                self._cursor, self._chunks_done,
            )
        if self.telemetry is not None:
            self.telemetry.snapshot(self.metrics, reason="final")
            self.telemetry.event(
                "run_end",
                health=health.as_dict(),
                stopped=self._stop_requested,
            )
        return SupervisedRun(
            result=self.engine.result(),
            health=health,
            dead_letters=self.dead_letters,
            stopped=self._stop_requested,
        )

    # -- reporting ------------------------------------------------------

    def scorecard(self) -> Scorecard:
        """One-line run summary: quality, latency, loss, alerts.

        Reads the operational fields off the shared registry and the
        model-quality/throughput fields off the engine result; SLO
        alert counts come from the attached tracker (zero alerts, no
        SLOs firing when none is attached).
        """
        result = self.engine.result()
        metrics = result.metrics or {}
        return Scorecard.from_registry(
            self.metrics,
            f1=metrics.get("f1", float("nan")),
            throughput=result.throughput,
            tracker=self.slo_tracker,
        )

    def health(self) -> StreamHealth:
        """Current reliability summary across supervisor and engine.

        The data-flow counts (consumed/processed/quarantined/retries)
        are registry reads — the supervisor, both engines, the pipeline
        and the partition tasks all report into the shared registry, so
        there is no second bookkeeping path to reconcile. Checkpoint
        bookkeeping stays supervisor-local: a resumed run reports only
        the checkpoints *it* wrote.
        """
        engine_dlq = self.engine.dead_letters
        by_stage = self.dead_letters.by_stage()
        if engine_dlq is not None and engine_dlq is not self.dead_letters:
            for stage, count in engine_dlq.by_stage().items():
                by_stage[stage] = by_stage.get(stage, 0) + count
        breaker_open = any(
            b is not None and b.is_open
            for b in (self.breaker, self.engine.breaker)
        )
        return StreamHealth.from_registry(
            self.metrics,
            n_checkpoints=self.n_checkpoints,
            last_checkpoint_batch=self.last_checkpoint_chunk,
            breaker_open=breaker_open,
            dead_letters_by_stage=by_stage,
        )

"""Micro-batch execution of the pipeline (Fig. 2 dataflow).

Each micro-batch of tweets is split into round-robin partitions and
flows through the numbered operations of Fig. 2:

1. ``map`` — preprocessing + feature extraction + normalization.
   Each partition starts from the normalizer statistics broadcast by
   the driver, observes its own raw vectors locally (so transforms are
   self-inclusive, matching the sequential engine's
   observe-then-transform semantics), and accumulates a *fresh*
   partition-local normalizer holding only its own observations;
2. ``filter`` — keep the labeled instances;
3. ``aggregate`` — each task trains a *local* model (a structure copy
   of the global Hoeffding Tree / ARF, or a weight copy for SLR), and
   the driver merges the local models into the global model;
4. ``map`` — predictions with the model broadcast at batch start;
5. ``map`` — local confusion statistics;
6. ``reduce`` — global evaluation metrics *and* global normalizer
   statistics: the driver folds each small per-partition normalizer
   into the global one with ``Normalizer.merge()``.

The driver therefore only merges fixed-size aggregates — models, BoW
deltas, confusion matrices, normalizer statistics — so its per-batch
work is O(partitions), not O(tweets). The only per-record driver work
left is draining the batch's *unlabeled* instances into alerting and
sampling, which hold driver-side state (per-user alert history, the
boosted reservoir) and receive the drain as one batched call each.

Broadcast cost is O(1) per batch, not O(partitions): the batch-start
state (model, normalizer statistics, BoW lexicon delta) rides in one
:class:`~repro.engine.runners.StateBroadcast` shared by every partition
task. Under a process runner it is pickled once per batch and decoded
once per worker (workers cache the last version); under serial/thread
runners the partitions read the live objects directly, which is why
partition code treats the broadcast strictly as read-only — local
normalizer clones come from ``fresh()`` + ``merge()`` (an exact copy:
merging into an empty normalizer reproduces every statistic), and each
partition builds its own trainable local model from the broadcast
worker-side.

Every stage is timed on the driver (:class:`StageTimings`); the
per-batch and per-run timings are surfaced on :class:`MicroBatchResult`
and :class:`EngineResult` so scale-out regressions are visible in the
benchmarks and the CLI.

The updated global model (serialized well under 1 MB, as the paper
notes) is "broadcast" — passed to the next batch's tasks.

Tweets travel the same way: under a pickling (process) runner the
driver encodes each micro-batch's partitions once into a pooled
shared-memory :class:`~repro.engine.runners.TweetBlock`, and every
partition task carries only an O(1) ``(segment, offset, length)``
descriptor — N partitions no longer cost N tweet-list pickles through
the pool's task pipe. JSONL records pickle to their raw lines, which
the partitions parse: the driver never parses a line. Partition outputs
ship compact aggregates on the way back (SLR locals reduce to a
weights/bias/count triple; unlabeled rows travel as columns; per-tweet
stage telemetry is only measured and shipped when worker telemetry is
on).

With ``pipelined=True`` the engine double-buffers batches: after batch
*k*'s partitions resolve, the driver merges *k* (so batch *k+1*'s
broadcast sees the updated state), launches *k+1* on a background
submit thread, and runs *k*'s per-record drain/telemetry finalize
while *k+1* computes. Merge order — and therefore model state — is
bit-identical to the synchronous path; see :meth:`submit_batch`.

Reliability: every partition is its own fault domain. A partition that
fails with a *transient* error (lost pool worker, I/O hiccup, injected
fault, blown deadline) is retried alone under the engine's
:class:`~repro.reliability.supervisor.RetryPolicy` with exponential
backoff and seeded jitter, against the same broadcast and tweet block;
since all merges happen only after every partition resolves, engine
state is bit-identical across attempts. A fatal error, or a transient
one past the retry budget, raises — or, with a dead-letter queue
attached, quarantines the partition as one record. With a queue, each
partition also quarantines the tweets that fail validation or
extraction, shipping the records back to the driver's queue; a
failure-rate circuit breaker stops the run when the stream is too
dirty to trust.
"""

from __future__ import annotations

import os
import random
import time
import traceback as traceback_module
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.core.config import PipelineConfig
from repro.core.evaluation import ConfusionMatrix
from repro.core.features import DegradeTier, FeatureExtractor, LabelEncoder
from repro.core.normalization import Normalizer
from repro.core.pipeline import AggressionDetectionPipeline, BlockStages
from repro.data.tweet import TweetItem
from repro.engine.runners import (
    OUTCOME_TIMED_OUT,
    OUTCOME_WORKER_LOST,
    PartitionError,
    Runner,
    SegmentPool,
    SerialRunner,
    StateBroadcast,
    TaskOutcome,
    TweetBlock,
    TweetSlice,
    make_runner,
    new_broadcast_key,
)
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.recorder import FlightRecorder
from repro.obs.tracing import (
    STAGE_SECONDS,
    WORKER_STAGE_SECONDS,
    Tracer,
    WorkerTelemetry,
    span_tree,
    stage_seconds_by_stage,
)
from repro.reliability.deadletter import DeadLetterQueue, DeadLetterRecord
from repro.streamml.base import StreamClassifier, argmax
from repro.streamml.instance import (
    ClassifiedBlock,
    ClassifiedInstance,
    Instance,
    InstanceBlock,
)
from repro.streamml.slr import StreamingLogisticRegression
from repro.text.lexicons import SWEAR_WORDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.overload import OverloadController
    from repro.reliability.supervisor import RetryPolicy


class _NullHistogram:
    """Observe sink used when worker telemetry is off.

    The partition hot loops keep their ``observe`` call sites, but with
    telemetry disabled the per-tweet stage timings are neither sketched
    nor shipped back to the driver — the default-off path stops paying
    for (and pickling) data it would discard.
    """

    __slots__ = ()

    def observe_repeated(self, value: float, n: int) -> None:
        pass


_NULL_HIST = _NullHistogram()


class _SLRDelta:
    """Compact SLR partition result: weights, bias, examples seen.

    A trained partition-local :class:`StreamingLogisticRegression`
    carries its full configuration (learning-rate schedule, lambda,
    counters); the driver's iterative-parameter-mixing
    merge reads only three fields, so the worker ships exactly those.
    Duck-typed into :meth:`MicroBatchEngine._average_slr` — the merge
    arithmetic is unchanged, byte for byte.
    """

    __slots__ = ("weights", "bias", "instances_seen")

    def __init__(
        self,
        weights: List[List[float]],
        bias: List[float],
        instances_seen: int,
    ) -> None:
        self.weights = weights
        self.bias = bias
        self.instances_seen = instances_seen


def _compact_local_model(model: StreamClassifier) -> object:
    """Shrink a trained local model for the return trip when possible.

    SLR locals reduce to an :class:`_SLRDelta`; tree/ensemble structure
    copies *are* the delta (the driver grafts their accumulated
    statistics) and ship whole, as do plain clones.
    """
    if isinstance(model, StreamingLogisticRegression) and not hasattr(
        model, "structure_copy"
    ):
        return _SLRDelta(
            weights=[list(row) for row in model.weights],
            bias=list(model.bias),
            instances_seen=model.instances_seen,
        )
    return model


@dataclass
class _PartitionOutput:
    """Everything a partition task sends back to the driver.

    All fields are either fixed-size aggregates (model, BoW delta,
    confusion matrix, normalizer statistics, counters) or the batch's
    unlabeled rows, as columns, destined for the driver-side
    alert/sample drain. Raw feature vectors never leave the partition.

    ``local_model`` is either a trained local classifier (tree/ensemble
    structure copies, plain clones) or an :class:`_SLRDelta` — the
    compact weights/bias/examples triple the SLR merge actually reads.
    """

    local_model: Optional[object]
    bow_delta: Optional[AdaptiveBagOfWords]
    local_stats: ConfusionMatrix
    local_normalizer: Normalizer
    n_labeled: int
    n_unlabeled: int
    # The unlabeled rows (None when there are none) and their user ids.
    unlabeled: Optional[ClassifiedBlock]
    unlabeled_users: Sequence[Optional[str]]
    # (tweet_id, stage, error, traceback) per quarantined tweet; the
    # driver folds these into its dead-letter queue.
    poisoned: List[Tuple[Optional[str], str, str, str]] = field(
        default_factory=list
    )
    # Partition-local metric snapshot (per-tweet stage histograms,
    # throughput counters); the driver folds it into its registry with
    # MetricsRegistry.merge_snapshot — same pattern as the normalizer.
    metrics: Optional[MetricsSnapshot] = None
    # Captured worker-side spans (decode/derive_state/extract/...)
    # under one root "partition" span; the driver stitches these into
    # the batch trace. None when worker telemetry is off.
    telemetry: Optional[WorkerTelemetry] = None


@dataclass
class _ExecStats:
    """Per-batch tally of the partition fault-domain events."""

    retries: int = 0
    n_timeouts: int = 0
    n_worker_lost: int = 0
    n_speculative: int = 0
    n_speculative_wins: int = 0
    n_pool_rebuilds: int = 0
    # Per-partition annotations for trace stitching: speculative win,
    # runner-observed duration, retry round the partition resolved on.
    partition_meta: Dict[int, Dict[str, Any]] = field(default_factory=dict)

    @property
    def n_stragglers(self) -> int:
        """Partitions that blew their deadline or lost their worker."""
        return self.n_timeouts + self.n_worker_lost


@dataclass
class _ExecBundle:
    """Everything the partition-execute stage produced for one batch.

    Built either inline (synchronous :meth:`process_batch`) or on the
    pipeline submit thread; the merge/finalize phases consume it on the
    driver thread in both cases, so the two paths share one code body.
    """

    #: ``indexed_outputs[i]`` is partition ``i``'s output, or ``None``
    #: if it was dropped (then it is listed in ``dropped``).
    indexed_outputs: List[Optional[_PartitionOutput]]
    dropped: List[Tuple[int, TaskOutcome]]
    exec_stats: _ExecStats
    execute_seconds: float
    #: perf_counter timestamp when the last partition resolved — the
    #: anchor for the worker_idle_seconds measurement at next submit.
    done_at: float

    @property
    def outputs(self) -> List[_PartitionOutput]:
        """The surviving outputs, in partition order — merging them in
        that order keeps the model state deterministic."""
        return [o for o in self.indexed_outputs if o is not None]


@dataclass
class _BatchState:
    """One micro-batch's driver-side lifecycle record.

    Created at launch (broadcast snapshot + partitioning + tweet-block
    encode), carried through execute (``future``/``bundle``) and the
    merge/finalize phases. In pipelined mode exactly one of these is in
    flight at a time (double buffering: batch *k* finalizes while batch
    *k+1* computes).
    """

    n_tweets: int
    batch_tier: DegradeTier
    broadcast: StateBroadcast
    partitions: List[List[TweetItem]]
    block: TweetBlock
    started: float
    future: Optional["Future[_ExecBundle]"] = None
    bundle: Optional[_ExecBundle] = None
    #: Driver-tracer-observed execute duration (sync path only); the
    #: pipelined path uses the bundle's own measurement.
    execute_span_s: Optional[float] = None
    model_merge_s: float = 0.0
    bow_absorb_s: float = 0.0
    normalizer_merge_s: float = 0.0


def _maybe_span(tracer: Optional[Tracer], name: str) -> ContextManager:
    """A tracer span, or a no-op context when telemetry is off."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name)


def _make_local_model(model: StreamClassifier) -> StreamClassifier:
    """Partition-local trainable copy of the broadcast model (op #3).

    Built *worker-side* from the broadcast model, so the driver never
    serializes per-task local models: HT/ARF/Oza ensembles get a
    statistics-accumulating structure copy, SLR a weight copy with the
    example counter reset (the driver's merge weighs locals by examples
    seen this batch), everything else a plain clone.
    """
    if hasattr(model, "structure_copy"):
        return model.structure_copy()
    if isinstance(model, StreamingLogisticRegression):
        local = model.clone()
        local.merge(model)  # copy current weights
        local.instances_seen = 0
        return local
    return model.clone()


def _partition_error(index: int, outcome: TaskOutcome) -> PartitionError:
    """A failed outcome as an error naming partition ``index`` of the
    batch: a retry attempt's task list holds only the partitions that
    failed, so the runner's own index is a position in that list."""
    error = outcome.to_error()
    renamed = PartitionError(index, error.message, transient=error.transient)
    renamed.__cause__ = error
    return renamed


class _PartitionTask:
    """Picklable per-partition work unit (ops #1-#5 of Fig. 2).

    A compact descriptor: this partition's
    :class:`~repro.engine.runners.TweetSlice` (an O(1) shared-memory
    coordinate under process runners, the live list otherwise) plus a
    handful of scalar flags. The heavyweight batch-start state — model,
    normalizer statistics, BoW lexicon delta — rides in the shared
    :class:`~repro.engine.runners.StateBroadcast` (pickled once per
    batch, decoded once per worker, read live under serial/thread
    runners). Everything resolved from the broadcast is treated as
    read-only: sibling partitions share it.
    """

    def __init__(
        self,
        tweets: TweetSlice,
        broadcast: StateBroadcast,
        encoder: LabelEncoder,
        preprocessing: bool,
        deobfuscate: bool,
        adaptive_bow: bool,
        quarantine: bool = False,
        tier: DegradeTier = DegradeTier.FULL,
        worker_telemetry: bool = True,
    ) -> None:
        self.tweets = tweets
        self.broadcast = broadcast
        self.encoder = encoder
        self.preprocessing = preprocessing
        self.deobfuscate = deobfuscate
        self.adaptive_bow = adaptive_bow
        self.quarantine = quarantine
        self.tier = tier
        self.worker_telemetry = worker_telemetry

    def __call__(self) -> _PartitionOutput:
        # Partition-local observability: nothing here is shared with the
        # driver or sibling partitions; the snapshot (and the captured
        # spans) ride back on the output, like the local normalizer.
        registry = MetricsRegistry()
        tracer: Optional[Tracer] = None
        if self.worker_telemetry:
            tracer = Tracer(
                registry,
                labels={"engine": "microbatch"},
                metric=WORKER_STAGE_SECONDS,
                capture=True,
            )
        with _maybe_span(tracer, "partition") as root:
            output = self._execute(registry, tracer)
        if tracer is not None:
            output.telemetry = WorkerTelemetry(
                spans=tracer.drain(),
                pid=os.getpid(),
                wall_s=root.duration or 0.0,
            )
        # Snapshot last so the worker spans' own histogram observations
        # (recorded as each span closes) are part of what ships back.
        output.metrics = registry.snapshot()
        return output

    def _execute(
        self, registry: MetricsRegistry, tracer: Optional[Tracer]
    ) -> _PartitionOutput:
        model: StreamClassifier
        normalizer: Normalizer
        with _maybe_span(tracer, "decode"):
            model, normalizer, bow_added, bow_removed = (
                self.broadcast.value(metrics=registry)
            )
            # Resolve the tweet slice in the same span: under a process
            # runner this attaches the batch's shared tweet block and
            # unpickles this partition's rows straight from the
            # mapping; otherwise it returns the live list.
            tweets = self.tweets.resolve()
        bow_words = (SWEAR_WORDS - bow_removed) | bow_added
        with _maybe_span(tracer, "derive_state"):
            bow_delta: Optional[AdaptiveBagOfWords] = None
            if self.adaptive_bow:
                bow_delta = AdaptiveBagOfWords(
                    seed_words=bow_words, update_interval=10 ** 9
                )
                bag = bow_delta
            else:
                bag = FixedBagOfWords(seed_words=bow_words)
            extractor = FeatureExtractor(
                encoder=self.encoder,
                preprocessing=self.preprocessing,
                bag_of_words=bag,
                deobfuscate=self.deobfuscate,
                tier=self.tier,
            )
            # Broadcast statistics + this partition's own observations.
            # fresh() + merge() clones the broadcast exactly (merging
            # into an empty normalizer reproduces every statistic and
            # counter) while keeping the driver's live normalizer
            # untouched under the serial and thread runners — no deep
            # copy through the shared object graph.
            seen = normalizer.fresh()
            seen.merge(normalizer)
            base_transformed = seen.n_transformed
            base_clipped = seen.n_clipped
            stages = _PartitionStages(
                extractor, seen, normalizer.fresh(), model, registry,
                tracer, self.quarantine, self.worker_telemetry,
            )
            local_model = _make_local_model(model)
        # One stage sequence over the partition's block: extract,
        # normalize and predict batched (the *_many kernels are
        # bit-exact with their row forms by contract, `seen` and the
        # local normalizer are independent, and predictions use the
        # read-only broadcast model), collect; a poisoned row only cuts
        # the block.
        stages.process_block(tweets)
        labeled = stages.labeled
        with _maybe_span(tracer, "learn"):
            t_learn = time.perf_counter()
            local_model.learn_many(labeled)  # op #3, local part
            if labeled:
                stages.book_learn(time.perf_counter() - t_learn, len(labeled))
        # The broadcast copy did this partition's transforms; hand the
        # clip deltas back on the fresh normalizer so the driver's
        # merge() accumulates them globally.
        local_normalizer = stages.local_normalizer
        local_normalizer.n_transformed = seen.n_transformed - base_transformed
        local_normalizer.n_clipped = seen.n_clipped - base_clipped
        unlabeled, unlabeled_users = stages.unlabeled_columns()
        return _PartitionOutput(
            local_model=_compact_local_model(local_model),
            bow_delta=bow_delta,
            local_stats=stages.stats,
            local_normalizer=local_normalizer,
            n_labeled=stages.n_labeled,
            n_unlabeled=stages.n_unlabeled,
            unlabeled=unlabeled,
            unlabeled_users=unlabeled_users,
            poisoned=stages.poisoned,
            # metrics snapshot is taken by __call__ *after* the root
            # span closes, so worker span durations ship back too.
        )


class _PartitionStages(BlockStages):
    """The pipeline's stage sequence inside one partition (ops #1-#5).

    Normalize also folds the raw rows into the fresh partition-local
    normalizer; predict is one ``predict_proba_many`` against the
    read-only broadcast model; collect fills the confusion matrix, the
    labeled rows the local model learns after the whole partition, and
    the unlabeled rows the driver drains. A poisoned row becomes a
    record shipped back to the driver's dead-letter queue.
    """

    STAGES = ("extract", "normalize", "predict", "learn")

    def __init__(
        self,
        extractor: FeatureExtractor,
        normalizer: Normalizer,
        local_normalizer: Normalizer,
        model: StreamClassifier,
        registry: MetricsRegistry,
        tracer: Optional[Tracer],
        quarantines: bool,
        telemetry: bool,
    ) -> None:
        self.extractor = extractor
        self.normalizer = normalizer
        self.local_normalizer = local_normalizer
        self.model = model
        self.tracer = tracer
        self.quarantines = quarantines
        self._init_stages(registry, "microbatch")
        if not telemetry:
            # Per-tweet stage timings exist to be stitched into traces
            # and shipped back on the snapshot; with telemetry off they
            # would be measured, pickled, and discarded.
            self._stage_hists = dict.fromkeys(self.STAGES, _NULL_HIST)
        self.stats = ConfusionMatrix(extractor.encoder.n_classes)
        self.labeled: List[Instance] = []
        # (x, proba, predicted, timestamp, tweet_id, user_id) per row.
        self.unlabeled: List[Tuple[Any, ...]] = []
        # (tweet_id, stage, error, traceback) per quarantined tweet; the
        # driver folds these into its dead-letter queue.
        self.poisoned: List[Tuple[Optional[str], str, str, str]] = []

    def _extract(self, tweets: Sequence[TweetItem], validate) -> InstanceBlock:
        with _maybe_span(self.tracer, "extract"):
            return super()._extract(tweets, validate)  # op #1 (extract)

    def _normalize(self, block: InstanceBlock) -> List[Tuple[float, ...]]:
        # op #1 (normalize: broadcast + local statistics)
        with _maybe_span(self.tracer, "normalize"):
            local = self.local_normalizer
            local.observe_many(block.rows_for(local.columnar))
            return super()._normalize(block)

    def _predict(
        self,
        block: InstanceBlock,
        xs: List[Tuple[float, ...]],
        t_start: float,
        out: Optional[List[ClassifiedInstance]],
    ) -> int:
        with _maybe_span(self.tracer, "predict"):
            probas = self.model.predict_proba_many(xs)  # op #4
            predict_s = time.perf_counter() - t_start
        with _maybe_span(self.tracer, "collect"):
            stats = self.stats
            labeled = self.labeled
            unlabeled = self.unlabeled
            n_labeled = 0
            for x, proba, y, timestamp, tweet_id, user_id in zip(
                xs, probas, block.ys, block.timestamps, block.tweet_ids,
                block.user_ids,
            ):
                predicted = argmax(proba)
                if y is not None:
                    n_labeled += 1
                    stats.add(y, predicted)  # op #5
                    # op #2 (filter)
                    labeled.append(Instance(x, y, 1.0, timestamp, tweet_id))
                else:
                    unlabeled.append(
                        (x, proba, predicted, timestamp, tweet_id, user_id)
                    )
            n = len(xs)
            self._stage_hists["predict"].observe_repeated(predict_s / n, n)
        return n_labeled

    def book_learn(self, seconds: float, n: int) -> None:
        """The local model's one ``learn_many`` over the partition."""
        self._stage_hists["learn"].observe_repeated(seconds / n, n)

    def unlabeled_columns(
        self,
    ) -> Tuple[Optional[ClassifiedBlock], Sequence[Optional[str]]]:
        """The unlabeled rows as one columnar block, and their user ids."""
        if not self.unlabeled:
            return None, ()
        xs, probas, predicted, timestamps, ids, users = zip(*self.unlabeled)
        return ClassifiedBlock(xs, probas, predicted, timestamps, ids), users

    def _quarantine(
        self, tweet_id: Optional[str], stage: str, exc: Exception
    ) -> None:
        self.metrics.counter(
            "tweets_quarantined_total", engine="microbatch", stage=stage
        ).inc()
        self.poisoned.append(
            (
                tweet_id,
                stage,
                f"{type(exc).__name__}: {exc}",
                "".join(
                    traceback_module.format_exception(
                        type(exc), exc, exc.__traceback__
                    )
                ),
            )
        )


@dataclass
class StageTimings:
    """Driver-observed wall-clock seconds per engine stage.

    ``partition_execute`` covers running all partition tasks (ops #1-#5
    of Fig. 2, including any pool scheduling and pickling); the
    remaining fields are the driver-side merge/drain stages.
    """

    partition_execute: float = 0.0
    model_merge: float = 0.0
    bow_absorb: float = 0.0
    normalizer_merge: float = 0.0
    drain: float = 0.0

    @property
    def total(self) -> float:
        """Sum of all stage timings."""
        return (
            self.partition_execute
            + self.model_merge
            + self.bow_absorb
            + self.normalizer_merge
            + self.drain
        )

    @property
    def driver_seconds(self) -> float:
        """Driver-side merge/drain time (everything but the partitions)."""
        return self.total - self.partition_execute

    def as_dict(self) -> Dict[str, float]:
        """Stage name -> seconds, in dataflow order."""
        return {
            "partition_execute": self.partition_execute,
            "model_merge": self.model_merge,
            "bow_absorb": self.bow_absorb,
            "normalizer_merge": self.normalizer_merge,
            "drain": self.drain,
        }

    @classmethod
    def from_registry(
        cls, registry: MetricsRegistry, engine: str = "microbatch"
    ) -> "StageTimings":
        """Rebuild cumulative timings from the span histograms.

        The engine no longer keeps a parallel accumulator: every driver
        stage is measured by a :class:`~repro.obs.tracing.Span` that
        records into ``stage_seconds{engine=..., stage=...}``, and this
        view reads the exact histogram sums back. Stages never run yet
        read as 0.
        """
        totals = stage_seconds_by_stage(registry, engine=engine)
        return cls(
            partition_execute=totals.get("partition_execute", 0.0),
            model_merge=totals.get("model_merge", 0.0),
            bow_absorb=totals.get("bow_absorb", 0.0),
            normalizer_merge=totals.get("normalizer_merge", 0.0),
            drain=totals.get("drain", 0.0),
        )


@dataclass
class MicroBatchResult:
    """Per-micro-batch outcome."""

    batch_index: int
    n_processed: int
    n_labeled: int
    n_unlabeled: int
    elapsed_seconds: float
    cumulative_f1: float
    cumulative_accuracy: float
    stage_seconds: StageTimings = field(default_factory=StageTimings)
    n_quarantined: int = 0
    n_retries: int = 0
    #: Degrade tier the batch's feature extraction ran at (0 = FULL).
    degrade_tier: int = 0


@dataclass
class EngineResult:
    """Aggregated outcome of a full engine run."""

    n_processed: int
    n_labeled: int
    n_unlabeled: int
    metrics: Dict[str, float]
    batches: List[MicroBatchResult]
    elapsed_seconds: float
    n_alerts: int
    stage_seconds: StageTimings = field(default_factory=StageTimings)
    n_quarantined: int = 0
    n_retries: int = 0
    #: Worker-observed seconds per partition stage (decode,
    #: derive_state, extract, normalize, predict, collect, learn, plus
    #: the root "partition" span), summed across all partitions and
    #: batches — the cross-process complement of ``stage_seconds``.
    worker_stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Processed tweets per second of wall-clock time.

        Un-timed results (``elapsed_seconds <= 0``) return ``nan``
        rather than a silent ``0.0``: a zero throughput reads as "the
        engine did no work", which poisons bench summaries, whereas
        ``nan`` is unmistakably "not measured".
        """
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.n_processed / self.elapsed_seconds

    def timing_sections(self) -> List[Tuple[str, Dict[str, float]]]:
        """Titled seconds-per-stage tables for a run report: the driver
        stages with their merge/drain total, then the worker stages."""
        stages = dict(
            self.stage_seconds.as_dict(),
            **{"driver total": self.stage_seconds.driver_seconds},
        )
        sections = [("stage timings", stages)]
        if self.worker_stage_seconds:
            sections.append(
                ("worker stages", dict(sorted(self.worker_stage_seconds.items())))
            )
        return sections


def _round_robin_partitions(
    tweets: Sequence[TweetItem], n_partitions: int
) -> List[List[TweetItem]]:
    """Split a batch into ``n_partitions`` round-robin partitions.

    Round-robin (rather than contiguous chunks) mirrors Spark's random
    partitioning of streaming receivers and keeps the label mix of each
    partition representative.
    """
    if n_partitions < 1:
        raise ValueError("n_partitions must be >= 1")
    return [list(tweets[i::n_partitions]) for i in range(n_partitions)]


class MicroBatchEngine:
    """Spark-Streaming-style execution of the detection pipeline.

    Args:
        config: pipeline configuration (same knobs as the sequential
            pipeline).
        n_partitions: parallel tasks per micro-batch.
        batch_size: tweets per micro-batch.
        runner: partition executor. Either a :class:`Runner` instance —
            which the *caller* owns and must close — or a string spec
            ("serial", "processes"), in which case the engine builds
            the runner itself, owns it, and closes it in :meth:`close`
            (or on context-manager exit). Defaults to an engine-owned
            :class:`SerialRunner`.
        n_workers: pool size when ``runner`` is a string spec
            (defaults to ``n_partitions``).
        retry_policy: when set, partitions that fail *transiently*
            (a transient :class:`PartitionError`, a blown deadline, a
            lost worker) are retried alone with exponential backoff +
            seeded jitter (tasks rebuilt fresh each attempt, engine
            state untouched between attempts). Fatal errors are never
            retried.
        dead_letters: when set, tweets that fail validation or
            extraction inside a partition are quarantined into this
            queue instead of failing the partition, and a partition
            that fails fatally or exhausts its retries is quarantined
            as one partition-grain record instead of raising.
        max_poison_rate: when set, enables a failure-rate circuit
            breaker (and a default dead-letter queue if none was given):
            :meth:`process_batch` raises
            :class:`~repro.reliability.deadletter.CircuitOpenError`
            once the quarantined fraction exceeds this rate.
        metrics: share a :class:`MetricsRegistry` with the caller
            (supervisor, CLI); by default the engine creates its own.
            Partition-side snapshots fold into it every batch.
        controller: optional
            :class:`~repro.reliability.overload.OverloadController`. The
            engine reports each batch's elapsed time to it and adopts
            the controller's adjusted ``batch_size`` and degrade tier
            for the *next* batch.
        worker_telemetry: partition tasks capture per-stage spans
            (decode/derive_state/extract/...) and ship them back for
            trace stitching; the stitched tree of the most recent batch
            is exposed as :attr:`last_trace`. On by default — the
            capture cost is a handful of perf_counter calls per
            partition.
        recorder: optional :class:`~repro.obs.recorder.FlightRecorder`;
            the engine records one event per batch and auto-dumps the
            ring on quarantine, pool rebuild, or a crashed run.
        pipelined: double-buffer batches — :meth:`run` (and callers
            using :meth:`submit_batch`) overlap the driver's merge/
            drain of batch *k* with the partition execution of batch
            *k+1* on a background submit thread. Results are bit-exact
            with the synchronous path (merges still happen on the
            driver thread, in partition order, only after every
            partition of a batch has resolved); the differences are
            timing-shaped: the overload controller observes each batch
            at merge time (so adopted batch sizes apply one batch
            later), the circuit breaker may trip one batch late, and an
            execution error surfaces on the *next* submit (or on
            :meth:`drain`). Callers must :meth:`drain` (or let
            :meth:`run`/:meth:`close` do it) before reading final
            state.

    Implements :class:`~repro.engine.protocol.Engine`: one supervisor
    chunk is one micro-batch.
    """

    kind = "microbatch"

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        n_partitions: int = 4,
        batch_size: int = 5000,
        runner: Optional[Union[Runner, str]] = None,
        n_workers: Optional[int] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_poison_rate: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        controller: Optional["OverloadController"] = None,
        partition_deadline_s: Optional[float] = None,
        speculate: Optional[float] = None,
        worker_telemetry: bool = True,
        recorder: Optional[FlightRecorder] = None,
        pipelined: bool = False,
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if partition_deadline_s is not None and partition_deadline_s <= 0:
            raise ValueError("partition_deadline_s must be positive")
        if speculate is not None:
            if partition_deadline_s is None:
                raise ValueError("speculate requires partition_deadline_s")
            if not 0.0 < speculate <= 1.0:
                raise ValueError("speculate must be in (0, 1]")
        # The detector state: partitions work on broadcast copies of
        # it, and the driver merges their output into it.
        self.pipeline = AggressionDetectionPipeline(
            config,
            dead_letters=dead_letters,
            max_poison_rate=max_poison_rate,
            metrics=metrics,
            engine="microbatch",
        )
        self.metrics = self.pipeline.metrics
        self.n_partitions = n_partitions
        self.batch_size = batch_size
        self.partition_deadline_s = partition_deadline_s
        self.speculate = speculate
        self.retry_policy = retry_policy
        self._retry_rng = (
            random.Random(retry_policy.seed)
            if retry_policy is not None
            else None
        )
        if runner is None:
            self.runner: Runner = SerialRunner()
            self._owns_runner = True
        elif isinstance(runner, str):
            self.runner = make_runner(
                runner, n_workers if n_workers is not None else n_partitions
            )
            self._owns_runner = True
        else:
            self.runner = runner
            self._owns_runner = False
        # Resident-state broadcasting: one versioned snapshot per batch,
        # pickled at most once into a shared-memory segment and cached
        # worker-side (runners module). The engine owns the live
        # broadcast's segment: it is unlinked when the next version
        # supersedes it and when the engine closes.
        self._broadcast_key = new_broadcast_key("microbatch")
        self._state_version = 0
        self._broadcast: Optional[StateBroadcast] = None
        self.batches: List[MicroBatchResult] = []
        self.n_retries = 0
        self.controller = controller
        if controller is not None:
            # The controller owns batch sizing from here on; start from
            # its current view so resume-from-checkpoint keeps the
            # degraded size rather than snapping back to the default.
            self.apply(controller)
        # Observability: one registry for the whole engine; driver
        # stages are measured by tracer spans, partition snapshots fold
        # in per batch, and StageTimings is a read-back view. The driver
        # tracer also *captures* its spans so each batch's driver spans
        # can be stitched with the worker-side partition subtrees.
        self.worker_telemetry = worker_telemetry
        self.recorder = recorder
        #: Stitched trace of the most recent batch (driver spans plus
        #: one subtree per partition), or None before the first batch /
        #: with worker telemetry off.
        self.last_trace: Optional[Dict[str, Any]] = None
        self._tracer = Tracer(
            self.metrics, labels={"engine": "microbatch"}, capture=True
        )
        self._m_ingested = self.metrics.counter(
            "tweets_ingested_total", engine="microbatch"
        )
        self._m_batches = self.metrics.counter(
            "batches_total", engine="microbatch"
        )
        self._m_retries = self.metrics.counter(
            "retries_total", engine="microbatch"
        )
        self._batch_hist = self.metrics.histogram(
            "batch_seconds", engine="microbatch"
        )
        self._m_partition_timeouts = self.metrics.counter(
            "partition_timeouts_total", engine="microbatch"
        )
        self._m_spec_launched = self.metrics.counter(
            "speculative_launches_total", engine="microbatch"
        )
        self._m_spec_wins = self.metrics.counter(
            "speculative_wins_total", engine="microbatch"
        )
        self._m_pool_rebuilds = self.metrics.counter(
            "pool_rebuilds_total", engine="microbatch"
        )
        self._m_partition_quarantined = self.metrics.counter(
            "tweets_quarantined_total", engine="microbatch", stage="partition"
        )
        self._partition_hist = self.metrics.histogram(
            "partition_seconds", engine="microbatch"
        )
        # Pipelined execution: one in-flight batch max (double
        # buffering), launched on a single background submit thread.
        # The tweet-block segment pool is shared across batches so the
        # per-batch transport cost is one encode pass, not an mmap.
        self.pipelined = pipelined
        self._inflight: Optional[_BatchState] = None
        self._submit_pool: Optional[ThreadPoolExecutor] = None
        self._segment_pool: Optional[SegmentPool] = None
        self._last_execute_done: Optional[float] = None
        self._pipeline_fill = self.metrics.gauge(
            "pipeline_fill", engine="microbatch"
        )
        self._driver_idle_hist = self.metrics.histogram(
            "driver_idle_seconds", engine="microbatch"
        )
        self._worker_idle_hist = self.metrics.histogram(
            "worker_idle_seconds", engine="microbatch"
        )
        self._encode_hist = self.metrics.histogram(
            "tweet_block_encode_seconds", engine="microbatch"
        )
        self._m_transport_tweets = self.metrics.counter(
            "transport_bytes_total", engine="microbatch", channel="tweets"
        )
        self._m_transport_broadcast = self.metrics.counter(
            "transport_bytes_total", engine="microbatch", channel="broadcast"
        )
        # The background thread must not touch the driver tracer (its
        # span stack is single-threaded state), so the pipelined path
        # books partition_execute time into the stage histogram
        # directly — same child the tracer's span would create.
        self._stage_execute_hist = self.metrics.histogram(
            STAGE_SECONDS, engine="microbatch", stage="partition_execute"
        )

    # The Engine contract's state and quarantine, and the driver-side
    # tallies, are the pipeline's.
    config = property(attrgetter("pipeline.config"))
    model = property(attrgetter("pipeline.model"))
    normalizer = property(attrgetter("pipeline.normalizer"))
    bag_of_words = property(attrgetter("pipeline.bag_of_words"))
    breaker = property(attrgetter("pipeline.breaker"))
    dead_letters = property(attrgetter("pipeline.dead_letters"))
    alert_manager = property(attrgetter("pipeline.alert_manager"))
    sampler = property(attrgetter("pipeline.sampler"))
    n_processed = property(attrgetter("pipeline.n_processed"))
    n_unlabeled = property(attrgetter("pipeline.n_unlabeled"))

    @property
    def stage_seconds(self) -> StageTimings:
        """Cumulative driver stage timings (view over span histograms)."""
        return StageTimings.from_registry(self.metrics)

    @property
    def degrade_tier(self) -> DegradeTier:
        """Tier the next batch's feature extraction will run at."""
        if self.controller is not None:
            return self.controller.tier
        return self.pipeline.degrade_tier

    def apply(self, controller: "OverloadController") -> None:
        """Adopt the controller's tier, batch size and partition count
        for the next discretization round."""
        self.batch_size = controller.batch_size
        self.pipeline.set_degrade_tier(controller.tier)
        if controller.n_partitions is not None:
            self.n_partitions = controller.n_partitions

    def describe(self) -> str:
        """Kind, partitions x batch size, runner (and pipelining)."""
        return (
            f"{self.kind} ({self.n_partitions} partitions x "
            f"{self.batch_size} tweets, runner={type(self.runner).__name__}"
            f"{', pipelined' if self.pipelined else ''})"
        )

    # ------------------------------------------------------------------
    # Runner ownership
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the engine-owned runner's pooled resources and the
        engine's broadcast state.

        Only runners the engine created itself (the default, or a string
        ``runner`` spec) are closed; an injected :class:`Runner` instance
        stays open — its creator owns its lifecycle, but even then the
        engine evicts its own broadcast key from worker caches so a
        shared long-lived pool forgets this engine's state. The live
        broadcast's shared-memory segment is always unlinked here.
        Idempotent: calling it repeatedly (or after a failed :meth:`run`
        already closed the runner) is safe, and pooled runners lazily
        rebuild their pool if the engine is used again after a close.

        A pipelined in-flight batch is *aborted*, not finalized: its
        results are discarded (callers wanting them must :meth:`drain`
        first). The submit thread and the tweet-block segment pool are
        torn down with it, so a crashed pipelined run leaks neither
        threads nor ``/dev/shm`` segments.
        """
        self._abort_inflight()
        if self._submit_pool is not None:
            self._submit_pool.shutdown(wait=False)
            self._submit_pool = None
        if self._broadcast is not None:
            self._broadcast.release()
            self._broadcast = None
        # Evict before closing: a shared pool stays alive after this
        # engine is gone, and its workers should not retain a dead
        # engine's model/normalizer payload.
        self.runner.evict_broadcast(self._broadcast_key)
        if self._owns_runner:
            self.runner.close()
        if self._segment_pool is not None:
            self._segment_pool.close()
            self._segment_pool = None

    def __enter__(self) -> "MicroBatchEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Model-parallel adapters (op #3: local train + global merge)
    # ------------------------------------------------------------------

    def _combine_models(self, locals_: Sequence[object]) -> None:
        model = self.model
        trained = [m for m in locals_ if m.instances_seen > 0]
        if not trained:
            return
        if hasattr(model, "structure_copy"):
            for local in trained:
                model.merge(local)
            if hasattr(model, "attempt_deferred_splits"):
                model.attempt_deferred_splits()
            return
        if isinstance(model, StreamingLogisticRegression):
            self._average_slr(model, trained)
            return
        for local in trained:
            model.merge(local)

    @staticmethod
    def _average_slr(
        model: StreamingLogisticRegression,
        locals_: Sequence[object],
    ) -> None:
        # Iterative parameter mixing: the new global weights are the
        # example-weighted average of the local weights (each local
        # started from the old global weights). Locals are either full
        # SLR models or _SLRDelta triples — only weights/bias/
        # instances_seen are read, so the arithmetic is identical.
        total = sum(m.instances_seen for m in locals_)
        if total == 0:
            return
        first = locals_[0]
        if not first.weights:
            return
        n_classes = model.n_classes
        n_features = len(first.weights[0])
        new_weights = [[0.0] * n_features for _ in range(n_classes)]
        new_bias = [0.0] * n_classes
        for local in locals_:
            share = local.instances_seen / total
            for cls in range(n_classes):
                row = local.weights[cls]
                target = new_weights[cls]
                for feature in range(n_features):
                    target[feature] += share * row[feature]
                new_bias[cls] += share * local.bias[cls]
        model._weights = new_weights
        model._bias = new_bias
        model.instances_seen += total

    # ------------------------------------------------------------------
    # Batch processing
    # ------------------------------------------------------------------

    def _broadcast_state(self) -> StateBroadcast:
        """Snapshot the batch-start state for the partition broadcast.

        The payload is ``(model, normalizer, bow added, bow removed)``:
        the BoW lexicon travels as a compact delta against the fixed
        swear-word seed rather than the full word set. A new version per
        batch keeps worker caches coherent — engine state mutates
        between batches (merges, BoW maintenance) but never within one,
        so retry attempts share the same broadcast (and its one-time
        pickle).
        """
        if self._broadcast is not None:
            # Version bump: the previous batch (including any retries)
            # is done, so its shared-memory segment can be unlinked.
            self._broadcast.release()
        words = frozenset(self.bag_of_words.words)
        self._state_version += 1
        self._broadcast = StateBroadcast(
            key=self._broadcast_key,
            version=self._state_version,
            value=(
                self.model,
                self.normalizer,
                words - SWEAR_WORDS,
                SWEAR_WORDS - words,
            ),
        )
        return self._broadcast

    def _tasks_for(
        self,
        slices: Sequence[TweetSlice],
        broadcast: StateBroadcast,
        tier: DegradeTier,
    ) -> List[_PartitionTask]:
        """Fresh partition tasks for one batch attempt.

        Rebuilt from scratch on every retry attempt (they are cheap:
        an O(1) tweet-slice descriptor plus flags — the heavy state
        stays on the shared broadcast and the batch's tweet block);
        local models are created inside the task call, so a
        half-executed attempt can never leak trained state into the
        next one. ``tier`` is passed explicitly: it is captured at
        batch-prepare time on the driver thread, so the pipelined
        submit thread never reads the engine's mutable tier.
        """
        return [
            _PartitionTask(
                tweets=tweet_slice,
                broadcast=broadcast,
                encoder=self.pipeline.encoder,
                preprocessing=self.config.preprocessing,
                deobfuscate=self.config.deobfuscate,
                adaptive_bow=self.config.adaptive_bow,
                quarantine=self.dead_letters is not None,
                tier=tier,
                worker_telemetry=self.worker_telemetry,
            )
            for tweet_slice in slices
        ]

    def _stitch_trace(self, bundle: _ExecBundle) -> Dict[str, Any]:
        """One trace tree for the batch: driver spans + worker subtrees.

        Drains the driver tracer's captured spans (so each batch's trace
        holds only its own), nests them, and attaches one annotated node
        per partition: successful partitions carry their worker-side
        span subtree (plus pid / wall time / speculative-win / retry
        round from the runner), dropped partitions a status stub. The
        whole structure is plain dicts — JSON-ready for dumps and
        deterministic for a deterministic run (span ids are per-tracer
        creation counters, nodes are ordered by partition index).
        """
        driver_spans = span_tree(self._tracer.drain())
        meta = bundle.exec_stats.partition_meta
        partition_nodes: List[Dict[str, Any]] = []
        for index, output in enumerate(bundle.indexed_outputs):
            if output is None or output.telemetry is None:
                continue
            node: Dict[str, Any] = {
                "partition": index,
                "status": "ok",
                "pid": output.telemetry.pid,
                "wall_s": output.telemetry.wall_s,
                "spans": output.telemetry.tree(),
            }
            node.update(meta.get(index, {}))
            partition_nodes.append(node)
        for index, outcome in bundle.dropped:
            partition_nodes.append(
                {
                    "partition": index,
                    "status": outcome.status,
                    "spans": [],
                }
            )
        partition_nodes.sort(key=lambda node: node["partition"])
        return {
            "trace_id": f"microbatch-batch-{len(self.batches)}",
            "driver": driver_spans,
            "partitions": partition_nodes,
        }

    def _prepare_batch(self, tweets: Sequence[TweetItem]) -> _BatchState:
        """Snapshot everything a batch needs before execution starts.

        Runs on the driver thread (it reads mutable engine state: tier,
        partition count, model/normalizer/BoW for the broadcast). The
        tweets are partitioned once and — under a pickling runner —
        encoded once into a pooled shared-memory tweet block; retries
        and speculative copies all reuse the same block.
        """
        started = time.perf_counter()
        batch_tier = self.degrade_tier
        broadcast = self._broadcast_state()
        partitions = _round_robin_partitions(tweets, self.n_partitions)
        if getattr(self.runner, "needs_pickled_tasks", False):
            if self._segment_pool is None:
                self._segment_pool = SegmentPool()
            t_encode = time.perf_counter()
            block = TweetBlock.encode(partitions, self._segment_pool)
            self._encode_hist.observe(time.perf_counter() - t_encode)
            self._m_transport_tweets.inc(block.n_bytes)
        else:
            block = TweetBlock.live(partitions)
        return _BatchState(
            n_tweets=len(tweets),
            batch_tier=batch_tier,
            broadcast=broadcast,
            partitions=partitions,
            block=block,
            started=started,
        )

    def _run_partitions(self, state: _BatchState) -> _ExecBundle:
        """Execute all partition tasks for one batch (no engine-state
        mutation beyond counters — a raise here leaves the engine
        exactly as it was before the batch).

        Each partition is its own fault domain: one
        :meth:`Runner.run_with_deadline` call per attempt (no deadline
        when ``partition_deadline_s`` is ``None``), successful
        partitions keep their outputs, and failed/timed-out/lost ones
        are retried alone under the :class:`RetryPolicy`'s seeded
        backoff, against the *same* broadcast and tweet block (engine
        state is frozen for the whole batch, so late attempts see
        identical inputs). A partition that fails fatally or exhausts
        its budget is dropped — quarantined at finalize — when a
        dead-letter queue is attached, and raised otherwise; no merge
        has happened at that point, so the no-half-applied guarantee
        holds.

        Thread-agnostic: runs inline on the driver for the synchronous
        path, on the pipeline submit thread otherwise. It must not
        touch the driver tracer or any state the driver mutates during
        merge/finalize; everything batch-specific rides on ``state``.
        """
        t_start = time.perf_counter()
        slices = state.block.slices
        outputs: List[Optional[_PartitionOutput]] = [None] * len(slices)
        dropped: List[Tuple[int, TaskOutcome]] = []
        stats = _ExecStats()
        try:
            policy = self.retry_policy
            pending = list(range(len(slices)))
            attempt = 0
            while pending:
                tasks = self._tasks_for(
                    [slices[i] for i in pending],
                    state.broadcast,
                    state.batch_tier,
                )
                report = self.runner.run_with_deadline(
                    tasks,
                    deadline_s=self.partition_deadline_s,
                    speculate_after=self.speculate,
                )
                stats.n_speculative += report.n_speculative_launched
                stats.n_speculative_wins += report.n_speculative_wins
                stats.n_pool_rebuilds += report.n_pool_rebuilds
                retryable: List[Tuple[int, TaskOutcome]] = []
                for outcome in report.outcomes:
                    index = pending[outcome.partition_index]
                    if outcome.ok:
                        outputs[index] = outcome.result  # type: ignore
                        # Trace annotations: who won (a speculative copy?),
                        # how long the runner saw it take, and which retry
                        # round it resolved on.
                        stats.partition_meta[index] = {
                            "speculative": outcome.speculative,
                            "duration_s": outcome.duration_s,
                            "attempts": attempt,
                        }
                        continue
                    if outcome.status == OUTCOME_TIMED_OUT:
                        stats.n_timeouts += 1
                    elif outcome.status == OUTCOME_WORKER_LOST:
                        stats.n_worker_lost += 1
                    if outcome.retryable:
                        retryable.append((index, outcome))
                    elif self.dead_letters is not None:
                        dropped.append((index, outcome))
                    else:
                        raise _partition_error(index, outcome)
                if not retryable:
                    break
                if policy is not None and attempt < policy.max_retries:
                    assert self._retry_rng is not None
                    delay = policy.backoff_delay(attempt, self._retry_rng)
                    attempt += 1
                    stats.retries += 1
                    self.n_retries += 1
                    policy.sleep(delay)
                    pending = [index for index, _outcome in retryable]
                    continue
                # Retry budget exhausted (or no policy): quarantine if a
                # DLQ can absorb the loss, otherwise surface the first
                # failure — still before any merge.
                if self.dead_letters is None:
                    raise _partition_error(*retryable[0])
                dropped.extend(retryable)
                break
        finally:
            # Booked once per batch, a raise included: the partitions
            # that resolved and the deadlines that were blown.
            self._partition_hist.observe_many(
                meta["duration_s"] for meta in stats.partition_meta.values()
            )
            self._m_partition_timeouts.inc(stats.n_timeouts)
        done = time.perf_counter()
        return _ExecBundle(
            indexed_outputs=outputs,
            dropped=dropped,
            exec_stats=stats,
            execute_seconds=done - t_start,
            done_at=done,
        )

    def _merge_batch(self, state: _BatchState) -> None:
        """Driver-thread merge of a fully-resolved batch (ops #3/#6).

        Must run before the *next* batch is prepared: the next
        broadcast snapshots the merged model/normalizer/BoW, and the
        overload controller's adopted sizes apply from here. Recycles
        the batch's tweet block — safe now that every retry and
        speculative attempt has resolved.
        """
        bundle = state.bundle
        assert bundle is not None
        state.block.close()
        outputs = bundle.outputs
        # One encode per batch (the payload is cached across retries);
        # the serial runner never pickles, so the field stays None.
        broadcast = state.broadcast
        if broadcast.encode_seconds is not None:
            self.metrics.histogram(
                "broadcast_encode_seconds", engine="microbatch"
            ).observe(broadcast.encode_seconds)
            self._m_transport_broadcast.inc(broadcast.payload_bytes or 0)

        with self._tracer.span("model_merge") as span_model:
            self._combine_models(
                [o.local_model for o in outputs if o.local_model]
            )

        with self._tracer.span("bow_absorb") as span_bow:
            if isinstance(self.bag_of_words, AdaptiveBagOfWords):
                for output in outputs:
                    if output.bow_delta is not None:
                        self.bag_of_words.absorb(output.bow_delta)
                self.bag_of_words.maintain()

        with self._tracer.span("normalizer_merge") as span_normalizer:
            for output in outputs:
                self.normalizer.merge(output.local_normalizer)

        state.model_merge_s = span_model.duration or 0.0
        state.bow_absorb_s = span_bow.duration or 0.0
        state.normalizer_merge_s = span_normalizer.duration or 0.0

    def _adopt_controller(self, elapsed: float, exec_stats: _ExecStats) -> None:
        """Report a batch to the overload controller and adopt its
        (possibly resized) batch size and partition count for the next
        discretization round."""
        if self.controller is None:
            return
        queue = self.controller.queue
        self.controller.observe_batch(
            elapsed,
            queue_fraction=(
                queue.depth_fraction if queue is not None else None
            ),
            n_stragglers=exec_stats.n_stragglers,
        )
        self.apply(self.controller)

    def _finalize_batch(
        self, state: _BatchState, observe_controller: bool = True
    ) -> MicroBatchResult:
        """Fold a merged batch's outputs into driver-side state.

        Everything after the three merges: confusion/counter folds,
        dead-letter quarantine, the alert/sample drain, metrics,
        trace stitching, recorder/breaker. In pipelined mode
        this overlaps the next batch's partition execution
        (``observe_controller=False`` there — the controller already
        observed at merge time, before the next batch was sized).
        """
        bundle = state.bundle
        assert bundle is not None
        outputs = bundle.outputs
        exec_stats = bundle.exec_stats
        batch_tier = state.batch_tier
        n_tweets = state.n_tweets

        n_labeled = 0
        n_unlabeled = 0
        n_poisoned = 0
        pipeline = self.pipeline
        cumulative = pipeline.evaluator.cumulative
        for output in outputs:
            cumulative.merge(output.local_stats)  # op #6
            n_labeled += output.n_labeled
            n_unlabeled += output.n_unlabeled
            n_poisoned += len(output.poisoned)
            if output.metrics is not None:
                self.metrics.merge_snapshot(output.metrics)
            if output.poisoned and self.dead_letters is not None:
                for tweet_id, stage, error, trace in output.poisoned:
                    self.dead_letters.add(
                        DeadLetterRecord(
                            tweet_id=tweet_id,
                            stage=stage,
                            error=error,
                            traceback=trace,
                            batch_index=len(self.batches),
                        )
                    )

        if bundle.dropped and self.dead_letters is not None:
            # Partition-grain quarantine: one poison record per dropped
            # partition; its tweets count as poisoned so the driver's
            # accounting (n_processed + n_quarantined == ingested)
            # stays exact without per-tweet records.
            partitions = state.partitions
            n_dropped = sum(len(partitions[i]) for i, _ in bundle.dropped)
            n_poisoned += n_dropped
            self._m_partition_quarantined.inc(n_dropped)
            for index, outcome in bundle.dropped:
                self.dead_letters.add(
                    DeadLetterRecord(
                        tweet_id=None,
                        stage="partition",
                        error=(
                            f"partition {index} {outcome.status} "
                            f"({len(partitions[index])} tweets): "
                            f"{outcome.to_error().message}"
                        ),
                        traceback="",
                        batch_index=len(self.batches),
                    )
                )

        with self._tracer.span("drain") as span_drain:
            for output in outputs:
                if output.unlabeled is not None:
                    pipeline.drain_unlabeled(
                        output.unlabeled, output.unlabeled_users
                    )

        timings = StageTimings(
            partition_execute=(
                state.execute_span_s
                if state.execute_span_s is not None
                else bundle.execute_seconds
            ),
            model_merge=state.model_merge_s,
            bow_absorb=state.bow_absorb_s,
            normalizer_merge=state.normalizer_merge_s,
            drain=span_drain.duration or 0.0,
        )
        pipeline.n_processed += n_tweets - n_poisoned
        pipeline.n_labeled += n_labeled
        pipeline.n_unlabeled += n_unlabeled
        pipeline.n_quarantined += n_poisoned
        self._m_ingested.inc(n_tweets)
        self._m_batches.inc()
        if exec_stats.retries:
            self._m_retries.inc(exec_stats.retries)
        if exec_stats.n_speculative:
            self._m_spec_launched.inc(exec_stats.n_speculative)
        if exec_stats.n_speculative_wins:
            self._m_spec_wins.inc(exec_stats.n_speculative_wins)
        if exec_stats.n_pool_rebuilds:
            self._m_pool_rebuilds.inc(exec_stats.n_pool_rebuilds)
        pipeline.publish_gauges()
        # All driver spans for this batch are closed at this point;
        # drain them and stitch the worker subtrees underneath into one
        # trace tree for the batch.
        self.last_trace = self._stitch_trace(bundle)
        elapsed = time.perf_counter() - state.started
        self._batch_hist.observe(elapsed)
        if observe_controller:
            self._adopt_controller(elapsed, exec_stats)
        result = MicroBatchResult(
            batch_index=len(self.batches),
            n_processed=n_tweets - n_poisoned,
            n_labeled=n_labeled,
            n_unlabeled=n_unlabeled,
            elapsed_seconds=elapsed,
            cumulative_f1=cumulative.weighted_f1,
            cumulative_accuracy=cumulative.accuracy,
            stage_seconds=timings,
            n_quarantined=n_poisoned,
            n_retries=exec_stats.retries,
            degrade_tier=int(batch_tier),
        )
        self.batches.append(result)
        if self.recorder is not None:
            # One ring entry per batch; incidents additionally dump the
            # ring so the post-mortem has the batches leading up to it.
            self.recorder.event(
                "batch",
                batch_index=result.batch_index,
                n_processed=result.n_processed,
                n_quarantined=n_poisoned,
                elapsed_s=elapsed,
                f1=result.cumulative_f1,
                degrade_tier=int(batch_tier),
            )
            if n_poisoned:
                self.recorder.event(
                    "quarantine",
                    batch_index=result.batch_index,
                    n_poisoned=n_poisoned,
                )
                self.recorder.auto_dump("quarantine")
            if exec_stats.n_pool_rebuilds:
                self.recorder.event(
                    "pool_rebuild",
                    batch_index=result.batch_index,
                    n_rebuilds=exec_stats.n_pool_rebuilds,
                )
                self.recorder.auto_dump("pool_rebuild")
        if self.breaker is not None:
            self.breaker.record_batch(n_tweets - n_poisoned, n_poisoned)
            self.breaker.check()
        return result

    def process_batch(self, tweets: Sequence[TweetItem]) -> MicroBatchResult:
        """Run one micro-batch through the Fig. 2 dataflow, synchronously.

        Raises:
            repro.engine.runners.PartitionError: no dead-letter queue
                is attached and a partition task fails fatally, or
                transiently with retries exhausted (or no
                ``retry_policy`` configured). No engine state is mutated
                in that case: all merges happen only after every
                partition has resolved.
            repro.reliability.deadletter.CircuitOpenError: quarantine
                is enabled with ``max_poison_rate`` and the stream's
                cumulative poison rate exceeded it. The batch's merges
                have completed when this is raised — the breaker is a
                stop signal, not a rollback.

        Partitions are independent fault domains: with a dead-letter
        queue, a partition that fails fatally or exhausts its retries is
        quarantined as one partition-grain poison record (its tweets
        count as poisoned) while its siblings' outputs merge normally,
        in partition order.

        A pipelined in-flight batch (from :meth:`submit_batch`) is
        drained first, so mixing the two entry points never interleaves
        two batches' merges.
        """
        if self._inflight is not None:
            self.drain()
        state = self._prepare_batch(tweets)
        with self._tracer.span("partition_execute") as span_execute:
            state.bundle = self._run_partitions(state)
        state.execute_span_s = span_execute.duration or 0.0
        self._merge_batch(state)
        return self._finalize_batch(state)

    def process_chunk(self, tweets: Sequence[TweetItem]) -> float:
        """Run one chunk as one micro-batch; returns its elapsed seconds.

        Synchronous by default (:meth:`process_batch`); a pipelined
        engine submits it (:meth:`submit_batch`) and returns the
        driver's time in the call, finalizing the previous chunk.
        """
        if not self.pipelined:
            return self.process_batch(tweets).elapsed_seconds
        started = time.perf_counter()
        self.submit_batch(tweets)
        return time.perf_counter() - started

    # ------------------------------------------------------------------
    # Pipelined execution (double-buffered batches)
    # ------------------------------------------------------------------

    def submit_batch(
        self, tweets: Sequence[TweetItem]
    ) -> Optional[MicroBatchResult]:
        """Pipelined submission: launch this batch, finalize the last.

        The driver awaits the previous in-flight batch, merges it (so
        this batch's broadcast sees the merged model/normalizer/BoW and
        the controller's adopted sizes), launches this batch's
        partition execution on the submit thread, and only *then* runs
        the previous batch's finalize — the per-record alert/sample
        drain and telemetry folds overlap this batch's compute.

        Returns the previous batch's :class:`MicroBatchResult`, or
        ``None`` on the first submission (call :meth:`drain` for the
        final batch's result). A partition failure in batch *k*
        surfaces here on submission *k+1* (with the new tweets left
        unprocessed) or on :meth:`drain`; the engine's
        no-half-applied-merge guarantee is unchanged.
        """
        prev = self._inflight
        self._inflight = None
        if prev is not None:
            self._await(prev)
            self._merge_batch(prev)
            assert prev.bundle is not None
            self._adopt_controller(
                time.perf_counter() - prev.started, prev.bundle.exec_stats
            )
        state = self._prepare_batch(tweets)
        self._launch(state)
        self._inflight = state
        if prev is None:
            return None
        return self._finalize_batch(prev, observe_controller=False)

    def drain(self) -> Optional[MicroBatchResult]:
        """Finish the in-flight pipelined batch, if any.

        Awaits, merges and finalizes it on the calling (driver) thread;
        afterwards the engine state is exactly what a synchronous run
        over the same batches would have produced. Safe to call when
        nothing is in flight (returns ``None``) — checkpointers call it
        unconditionally before snapshotting.
        """
        state = self._inflight
        if state is None:
            return None
        self._inflight = None
        self._await(state)
        self._merge_batch(state)
        assert state.bundle is not None
        self._adopt_controller(
            time.perf_counter() - state.started, state.bundle.exec_stats
        )
        return self._finalize_batch(state, observe_controller=False)

    def _await(self, state: _BatchState) -> None:
        """Block until a launched batch's execution resolves.

        The blocked time is the driver's pipeline stall — published as
        ``driver_idle_seconds`` (zero when the workers finished before
        the driver came back for the result).
        """
        assert state.future is not None
        t_wait = time.perf_counter()
        try:
            state.bundle = state.future.result()
        finally:
            self._pipeline_fill.set(0)
        self._driver_idle_hist.observe(time.perf_counter() - t_wait)

    def _launch(self, state: _BatchState) -> None:
        """Hand a prepared batch to the submit thread.

        The gap since the previous batch's last partition resolved is
        the workers' pipeline stall — published as
        ``worker_idle_seconds`` (the driver-side merge/prepare time the
        pipeline failed to hide).
        """
        if self._submit_pool is None:
            self._submit_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="microbatch-pipeline"
            )
        if self._last_execute_done is not None:
            self._worker_idle_hist.observe(
                max(0.0, time.perf_counter() - self._last_execute_done)
            )
        state.future = self._submit_pool.submit(self._execute_async, state)
        self._pipeline_fill.set(1)

    def _execute_async(self, state: _BatchState) -> _ExecBundle:
        """Submit-thread body: run the partitions, book execute time.

        Never touches the driver tracer (its span stack is
        single-threaded); the stage histogram is observed directly, so
        ``StageTimings.from_registry`` sees pipelined execute time too.
        All other metric writes on this path (partition_seconds,
        partition_timeouts_total, retry counters) are disjoint from the
        keys the driver thread writes during merge/finalize.
        """
        bundle = self._run_partitions(state)
        self._stage_execute_hist.observe(bundle.execute_seconds)
        self._last_execute_done = bundle.done_at
        return bundle

    def _abort_inflight(self) -> None:
        """Discard the in-flight batch (close/crash path).

        Cancels the submitted work if it has not started; otherwise
        waits a bounded moment for the submit thread (it is using the
        runner this close is about to tear down), then abandons it —
        its results are discarded either way, so engine state stays
        exactly at the last finalized batch.
        """
        state = self._inflight
        if state is None:
            return
        self._inflight = None
        if state.future is not None:
            state.future.cancel()
            try:
                state.future.result(timeout=30.0)
            except Exception:
                pass
        state.block.close()
        self._pipeline_fill.set(0)

    def run(self, tweets: Iterable[TweetItem]) -> EngineResult:
        """Discretize a stream into micro-batches and process them all.

        ``run`` may be called repeatedly (state carries over between
        calls); on success it does not close the runner — use
        :meth:`close` or the context-manager form when the engine owns
        a pooled runner. If the run *fails*, the engine-owned runner is
        closed before the exception propagates, so a crashed run can
        never leak a process pool (pooled runners rebuild lazily if the
        engine is reused afterwards).

        With ``pipelined=True`` batches flow through
        :meth:`submit_batch` (merge/drain of batch *k* overlapping the
        execution of batch *k+1*) and the last batch is drained before
        the result snapshot — callers see identical totals either way.
        """
        start = time.perf_counter()
        try:
            batch: List[TweetItem] = []
            for tweet in tweets:
                batch.append(tweet)
                if len(batch) >= self.batch_size:
                    self.process_chunk(batch)
                    batch = []
            if batch:
                self.process_chunk(batch)
            self.drain()
        except BaseException as exc:
            if self.recorder is not None:
                self.recorder.event("crash", error=repr(exc))
                self.recorder.auto_dump("crash")
            self.close()
            raise
        elapsed = time.perf_counter() - start
        return self.result(elapsed_seconds=elapsed)

    def result(self, elapsed_seconds: Optional[float] = None) -> EngineResult:
        """Snapshot the engine's cumulative outcome.

        ``elapsed_seconds`` defaults to the sum of per-batch elapsed
        times, which is what callers driving :meth:`process_batch`
        directly (e.g. the stream supervisor) want.
        """
        if elapsed_seconds is None:
            elapsed_seconds = sum(b.elapsed_seconds for b in self.batches)
        pipeline = self.pipeline
        return EngineResult(
            n_processed=pipeline.n_processed,
            n_labeled=pipeline.n_labeled,
            n_unlabeled=pipeline.n_unlabeled,
            metrics=pipeline.evaluator.summary(),
            batches=list(self.batches),
            elapsed_seconds=elapsed_seconds,
            n_alerts=pipeline.alert_manager.n_alerts,
            stage_seconds=self.stage_seconds,
            n_quarantined=pipeline.n_quarantined,
            n_retries=self.n_retries,
            worker_stage_seconds=stage_seconds_by_stage(
                self.metrics,
                metric=WORKER_STAGE_SECONDS,
                engine="microbatch",
            ),
        )

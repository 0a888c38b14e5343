"""Sequential (MOA-like) execution of the pipeline.

MOA processes the stream on a single thread with no batching or
scheduling overhead; this engine does the same by delegating to the
reference :class:`~repro.core.pipeline.AggressionDetectionPipeline`,
while recording wall-clock time and throughput so the scalability study
can compare it against the micro-batch engine (Figs. 15/16).

Observability: the engine shares one
:class:`~repro.obs.metrics.MetricsRegistry` with its pipeline, times
its driver loop with :class:`~repro.obs.tracing.Tracer` spans
(``stage_seconds{engine="sequential"}``), and surfaces the pipeline's
per-tweet stage totals (``tweet_stage_seconds``) as
:attr:`SequentialRunResult.stage_seconds` — the same shape the
micro-batch engine reports, so the two are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline, PipelineResult
from repro.data.tweet import TweetItem
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, stage_seconds_by_stage
from repro.reliability.deadletter import DeadLetterQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.overload import OverloadController

#: Tweets per block the engine hands its pipeline: large enough that
#: per-block telemetry and stage dispatch vanish per tweet, small enough
#: that a block is a sliver of a 2 000-tweet latency window.
BLOCK_TWEETS = 128


@dataclass
class SequentialRunResult:
    """Timing-annotated outcome of a sequential run."""

    pipeline_result: PipelineResult
    elapsed_seconds: float
    #: Exact seconds per per-tweet stage (extract/normalize/predict/
    #: learn/alert), read back from the registry's span histograms.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Tweets processed per second.

        ``nan`` for un-timed results (``elapsed_seconds <= 0``) — a
        silent ``0.0`` would poison bench summaries that average or
        compare throughputs.
        """
        if self.elapsed_seconds <= 0:
            return float("nan")
        return self.pipeline_result.n_processed / self.elapsed_seconds

    @property
    def metrics(self) -> Dict[str, float]:
        return self.pipeline_result.metrics

    def timing_sections(self) -> List[Tuple[str, Dict[str, float]]]:
        """Titled seconds-per-stage tables for a run report."""
        return [("stage timings", dict(self.stage_seconds))]


class SequentialEngine:
    """Single-threaded, per-record execution (the MOA baseline).

    Tweets reach the pipeline in blocks of :data:`BLOCK_TWEETS`; within
    a block every tweet is still scored by the model that learned the
    one before it.

    ``dead_letters`` / ``max_poison_rate`` pass straight through to the
    pipeline's poison-tweet quarantine (see
    :class:`~repro.core.pipeline.AggressionDetectionPipeline`);
    ``metrics`` lets a caller (supervisor, CLI) share a registry with
    the engine — by default the engine creates its own.

    Implements :class:`~repro.engine.protocol.Engine` as its
    one-partition case: the detector state, quarantine and registry
    are the pipeline's, and there is never in-flight work to drain.
    """

    kind = "sequential"
    #: Tweets per supervisor chunk unless the caller chooses one.
    batch_size = 1000

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_poison_rate: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        controller: Optional["OverloadController"] = None,
    ) -> None:
        self.controller = controller
        self.pipeline = AggressionDetectionPipeline(
            config,
            dead_letters=dead_letters,
            max_poison_rate=max_poison_rate,
            metrics=metrics,
        )
        self.metrics = self.pipeline.metrics
        self._tracer = Tracer(self.metrics, labels={"engine": "sequential"})
        self._m_ingested = self.metrics.counter(
            "tweets_ingested_total", engine="sequential"
        )
        self._batch_hist = self.metrics.histogram(
            "batch_seconds", engine="sequential"
        )
        if controller is not None:
            self.apply(controller)

    # The Engine contract's state and quarantine are the pipeline's.
    config = property(attrgetter("pipeline.config"))
    model = property(attrgetter("pipeline.model"))
    normalizer = property(attrgetter("pipeline.normalizer"))
    bag_of_words = property(attrgetter("pipeline.bag_of_words"))
    breaker = property(attrgetter("pipeline.breaker"))
    dead_letters = property(attrgetter("pipeline.dead_letters"))

    def apply(self, controller: "OverloadController") -> None:
        """Adopt the controller's degrade tier for the next chunk."""
        self.pipeline.set_degrade_tier(controller.tier)

    def describe(self) -> str:
        """Just the kind: there is nothing else to configure."""
        return self.kind

    def drain(self) -> None:
        """Nothing is ever in flight: every chunk finishes in place."""

    def close(self) -> None:
        """The engine holds no pooled resources."""

    def _stage_totals(self) -> Dict[str, float]:
        totals = stage_seconds_by_stage(
            self.metrics, metric="tweet_stage_seconds", engine="sequential"
        )
        # Pipeline order, whatever order a resume registered them in.
        return {
            stage: totals[stage]
            for stage in AggressionDetectionPipeline.STAGES
            if stage in totals
        }

    def _consume(
        self, span_name: str, tweets: Iterable[TweetItem]
    ) -> Tuple[int, float]:
        """Run ``tweets`` through the pipeline under one driver span,
        :data:`BLOCK_TWEETS` at a time.

        The engine's only ingest loop: every entry point books
        ``tweets_ingested_total`` here, so ``processed + quarantined +
        shed == ingested`` holds whichever one drove the stream.
        Returns ``(tweets consumed, span seconds)``.
        """
        count = 0
        process_block = self.pipeline.process_block
        iterator = iter(tweets)
        with self._tracer.span(span_name) as span:
            while True:
                block = list(islice(iterator, BLOCK_TWEETS))
                if not block:
                    break
                process_block(block)
                count += len(block)
        self._m_ingested.inc(count)
        assert span.duration is not None
        return count, span.duration

    def process_chunk(self, tweets: Iterable[TweetItem]) -> float:
        """Process one chunk of the stream; returns its elapsed seconds.

        The stream supervisor drives the engine through this method so
        it can checkpoint between chunks.
        """
        _, seconds = self._consume("process_chunk", tweets)
        # Each chunk doubles as this engine's "batch" for overload
        # purposes: it feeds the same batch_seconds family the
        # micro-batch engine uses, so OverloadController.poll() works
        # against either engine unchanged.
        self._batch_hist.observe(seconds)
        if self.controller is not None:
            queue = self.controller.queue
            self.controller.observe_batch(
                seconds,
                queue_fraction=(
                    queue.depth_fraction if queue is not None else None
                ),
            )
            self.apply(self.controller)
        return seconds

    def result(self) -> SequentialRunResult:
        """Snapshot the cumulative outcome of all chunks so far.

        Elapsed time is the ``process_chunk`` span total read back from
        the registry, so a resumed engine reports its whole run.
        """
        elapsed = stage_seconds_by_stage(self.metrics, engine="sequential")
        return SequentialRunResult(
            pipeline_result=self.pipeline.result(),
            elapsed_seconds=elapsed.get("process_chunk", 0.0),
            stage_seconds=self._stage_totals(),
        )

    def run(self, tweets: Iterable[TweetItem]) -> SequentialRunResult:
        """Process the whole stream, one block at a time."""
        _, seconds = self._consume("run", tweets)
        return SequentialRunResult(
            pipeline_result=self.pipeline.result(),
            elapsed_seconds=seconds,
            stage_seconds=self._stage_totals(),
        )

    def measure_throughput(
        self, tweets: Iterable[TweetItem], warmup: int = 1000
    ) -> float:
        """Steady-state tweets/second after a warm-up prefix."""
        iterator = iter(tweets)
        self._consume("warmup", islice(iterator, warmup))
        count, seconds = self._consume("measure", iterator)
        if seconds <= 0 or count == 0:
            # No measurable interval or nothing processed after warmup:
            # there is no throughput to report, and 0.0 would poison
            # bench comparisons as "infinitely slow".
            return float("nan")
        return count / seconds

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
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.pipeline import AggressionDetectionPipeline, PipelineResult
from repro.data.tweet import Tweet
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer, stage_seconds_by_stage
from repro.reliability.deadletter import DeadLetterQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.reliability.overload import OverloadController


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


class SequentialEngine:
    """Single-threaded, per-record execution (the MOA baseline).

    ``dead_letters`` / ``max_poison_rate`` pass straight through to the
    pipeline's poison-tweet quarantine (see
    :class:`~repro.core.pipeline.AggressionDetectionPipeline`);
    ``metrics`` lets a caller (supervisor, CLI) share a registry with
    the engine — by default the engine creates its own.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_poison_rate: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        controller: Optional["OverloadController"] = None,
    ) -> None:
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
        self._elapsed = 0.0
        self.controller = controller
        if controller is not None:
            self.pipeline.set_degrade_tier(controller.tier)

    def replace_pipeline(self, pipeline: AggressionDetectionPipeline) -> None:
        """Swap in a (restored) pipeline and rebind the shared registry.

        The engine's tracer and bound counters must follow the new
        pipeline's registry or the two would report into different
        worlds; checkpoint resume uses this.
        """
        self.pipeline = pipeline
        self.metrics = pipeline.metrics
        self._tracer = Tracer(self.metrics, labels={"engine": "sequential"})
        self._m_ingested = self.metrics.counter(
            "tweets_ingested_total", engine="sequential"
        )
        self._batch_hist = self.metrics.histogram(
            "batch_seconds", engine="sequential"
        )
        if self.controller is not None:
            self.pipeline.set_degrade_tier(self.controller.tier)

    def _stage_totals(self) -> Dict[str, float]:
        return stage_seconds_by_stage(
            self.metrics, metric="tweet_stage_seconds", engine="sequential"
        )

    def _consume(
        self, span_name: str, tweets: Iterable[Tweet]
    ) -> Tuple[int, float]:
        """Run ``tweets`` through the pipeline under one driver span.

        The engine's only per-tweet loop: every entry point books
        ``tweets_ingested_total`` here, so ``processed + quarantined +
        shed == ingested`` holds whichever one drove the stream.
        Returns ``(tweets consumed, span seconds)``.
        """
        count = 0
        with self._tracer.span(span_name) as span:
            for tweet in tweets:
                self.pipeline.process(tweet)
                count += 1
        self._m_ingested.inc(count)
        assert span.duration is not None
        return count, span.duration

    def process_many(self, tweets: Iterable[Tweet]) -> int:
        """Process a chunk of the stream, accumulating elapsed time.

        The stream supervisor drives the engine through this method so
        it can checkpoint between chunks; returns the number of tweets
        consumed (including quarantined ones).
        """
        count, seconds = self._consume("process_many", tweets)
        self._elapsed += seconds
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
            self.pipeline.set_degrade_tier(self.controller.tier)
        return count

    def result(self) -> SequentialRunResult:
        """Snapshot the cumulative outcome of all chunks so far."""
        return SequentialRunResult(
            pipeline_result=self.pipeline.result(),
            elapsed_seconds=self._elapsed,
            stage_seconds=self._stage_totals(),
        )

    def run(self, tweets: Iterable[Tweet]) -> SequentialRunResult:
        """Process the whole stream one tweet at a time."""
        _, seconds = self._consume("run", tweets)
        return SequentialRunResult(
            pipeline_result=self.pipeline.result(),
            elapsed_seconds=seconds,
            stage_seconds=self._stage_totals(),
        )

    def measure_throughput(
        self, tweets: Iterable[Tweet], warmup: int = 1000
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

"""The end-to-end aggression-detection pipeline (Fig. 1).

:class:`AggressionDetectionPipeline` is the single-process reference
implementation wiring all nine stages together. Labeled tweets follow
the prequential path (predict → evaluate → update adaptive BoW → train);
unlabeled tweets are predicted, alerted on, and offered to the boosted
sampler. A labeled tweet's predict and train are one
``StreamClassifier.test_then_train`` call. The distributed engine
(:mod:`repro.engine`) runs the same stage logic partition-parallel.

Both run one stage sequence over a *block* of tweets
(:class:`BlockStages`): extract the block into one
:class:`~repro.streamml.instance.InstanceBlock`, normalize it in one
batched call, predict, collect. The pipeline predicts with learning
interleaved per row, because prequential order means tweet *i* is scored
by the model that has learned *i − 1*; a micro-batch partition predicts
its block in one ``predict_proba_many``. Telemetry is booked once per
block. :meth:`AggressionDetectionPipeline.process` is the block of one,
on the row kernels.

A JSONL record (:class:`~repro.data.tweet.TweetLine`) is parsed in the
extract loop, so both engines share one parse site and a micro-batch
driver never parses a line.

Poison-input quarantine: when constructed with a
:class:`~repro.reliability.deadletter.DeadLetterQueue`, the fallible
per-tweet stages (parsing, validation and extraction; a row that passes
them is 17 finite floats) run under a try/except; a failing tweet is routed to
the dead-letter queue with its failing stage and traceback and the
stream keeps flowing (degraded skip-and-count) — until the
failure-rate circuit breaker opens, at which point the run fails
loudly with
:class:`~repro.reliability.deadletter.CircuitOpenError`. A failing row
cuts its block: every row before it finishes all stages before the
quarantine is recorded, so the state an open breaker leaves is the
state row-by-row processing leaves. Without a dead-letter queue the
historical behaviour is preserved: any stage error propagates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.core.alerting import AlertManager, AlertPolicy
from repro.core.config import PipelineConfig, create_model
from repro.core.evaluation import MetricsPoint, PrequentialEvaluator
from repro.core.features import (
    N_FEATURES,
    DegradeTier,
    FeatureExtractor,
    LabelEncoder,
)
from repro.core.normalization import Normalizer, make_normalizer
from repro.core.sampling import BoostedRandomSampler
from repro.data.tweet import Tweet, TweetItem
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.reliability.deadletter import (
    CircuitBreaker,
    DeadLetterQueue,
    validate_tweet,
)
from repro.streamml.base import StreamClassifier, argmax
from repro.streamml.instance import (
    ClassifiedBlock,
    ClassifiedInstance,
    Instance,
    InstanceBlock,
)

Row = Tuple[float, ...]


@dataclass
class PipelineResult:
    """Outcome of a full stream run."""

    config: PipelineConfig
    n_processed: int
    n_labeled: int
    n_unlabeled: int
    metrics: Dict[str, float]
    history: List[MetricsPoint]
    n_alerts: int
    bow_size: int
    bow_size_history: List[Tuple[int, int]] = field(default_factory=list)
    n_quarantined: int = 0

    def curve(self, metric: str = "window_f1") -> List[Tuple[int, float]]:
        """(n_labeled_seen, metric) series for plotting."""
        return [(p.n_seen, getattr(p, metric)) for p in self.history]


class BlockStages:
    """extract → normalize → predict → collect over a block of tweets.

    The one per-tweet stage sequence of both engines. A subclass sets
    the attributes below, calls :meth:`_init_stages`, and supplies
    ``_predict(block, xs, t_start, out)`` — predict and collect one
    normalized block, book its own stages, return how many rows are
    labeled — and ``_quarantine(tweet_id, stage, exc)`` for a poisoned
    row. Each stage is booked once per block: one
    ``observe_repeated`` per stage histogram and one ``inc`` per
    counter, whatever the block's size.
    """

    #: Quantile-sketch sampling for the per-tweet stage histograms:
    #: count/sum stay exact per tweet, the P² sketches ingest a block's
    #: mean once when the block crosses an 8-row boundary (a block of
    #: one: every 8th tweet).
    STAGE_SKETCH_EVERY = 8
    #: The per-tweet stages those histograms time, in pipeline order.
    STAGES: Tuple[str, ...] = ("extract", "normalize", "predict")

    extractor: FeatureExtractor
    normalizer: Normalizer
    #: Whether poisoned rows are quarantined (else their error raises).
    quarantines: bool

    def _init_stages(self, metrics: MetricsRegistry, engine: str) -> None:
        self.metrics = metrics
        self.engine_label = engine
        self.n_processed = 0
        self.n_labeled = 0
        self.n_unlabeled = 0
        self._m_processed = metrics.counter(
            "tweets_processed_total", engine=engine
        )
        self._m_labeled = metrics.counter(
            "tweets_labeled_total", engine=engine
        )
        self._m_unlabeled = metrics.counter(
            "tweets_unlabeled_total", engine=engine
        )

    @cached_property
    def _stage_hists(self) -> Dict[str, Histogram]:
        # Registered on the first block, so a driver that only merges
        # partition work into this state (the micro-batch engine) grows
        # no empty per-tweet histograms.
        return {
            stage: self.metrics.histogram(
                "tweet_stage_seconds",
                sketch_every=self.STAGE_SKETCH_EVERY,
                engine=self.engine_label,
                stage=stage,
            )
            for stage in self.STAGES
        }

    def process_block(
        self,
        tweets: Sequence[TweetItem],
        out: Optional[List[ClassifiedInstance]] = None,
    ) -> None:
        """Run ``tweets`` through every stage, in stream order.

        A row that fails to parse, validate or extract cuts the block:
        the rows before it run every stage, then the row is quarantined
        (or its error raised), then the rest follows as the next block.
        ``out``, when given, receives one classified instance per
        processed row.
        """
        validate = validate_tweet if self.quarantines else None
        while tweets:
            t_start = perf_counter()
            block = self._extract(tweets, validate)
            n = len(block)
            if n:
                t_extract = perf_counter()
                xs = self._normalize(block)
                t_normalize = perf_counter()
                n_labeled = self._predict(block, xs, t_normalize, out)
                self._book(
                    n, n_labeled, t_extract - t_start, t_normalize - t_extract
                )
            if block.failure is None:
                return
            stage, exc, tweet_id = block.failure
            if not self.quarantines:
                raise exc
            self._quarantine(tweet_id, stage, exc)
            tweets = tweets[n + 1:]

    def _extract(self, tweets: Sequence[TweetItem], validate) -> InstanceBlock:
        return self.extractor.extract_many(tweets, validate, self.metrics)

    def _normalize(self, block: InstanceBlock) -> List[Row]:
        """Observe-then-transform the block; a block of one takes the
        row kernel (the batched one is ``==`` to it by contract)."""
        normalizer = self.normalizer
        if len(block) == 1:
            return [normalizer.observe_and_transform(block.xs[0])]
        return normalizer.observe_and_transform_many(
            block.rows_for(normalizer.columnar)
        )

    def _book(
        self, n: int, n_labeled: int, extract_s: float, normalize_s: float
    ) -> None:
        """The block's extract/normalize time and row counts."""
        hists = self._stage_hists
        hists["extract"].observe_repeated(extract_s / n, n)
        hists["normalize"].observe_repeated(normalize_s / n, n)
        n_unlabeled = n - n_labeled
        self.n_processed += n
        self.n_labeled += n_labeled
        self.n_unlabeled += n_unlabeled
        self._m_processed.inc(n)
        if n_labeled:
            self._m_labeled.inc(n_labeled)
        if n_unlabeled:
            self._m_unlabeled.inc(n_unlabeled)


class AggressionDetectionPipeline(BlockStages):
    """Streaming aggression detector over labeled + unlabeled tweets."""

    STAGES = ("extract", "normalize", "predict", "learn", "alert")

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
        max_poison_rate: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        engine: str = "sequential",
    ) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.dead_letters = dead_letters
        self.breaker: Optional[CircuitBreaker] = None
        if max_poison_rate is not None:
            if dead_letters is None:
                self.dead_letters = DeadLetterQueue()
            self.breaker = CircuitBreaker(max_failure_rate=max_poison_rate)
        self.encoder = LabelEncoder(self.config.n_classes)
        if self.config.adaptive_bow:
            self.bag_of_words = AdaptiveBagOfWords()
        else:
            self.bag_of_words = FixedBagOfWords()
        self.extractor = FeatureExtractor(
            encoder=self.encoder,
            preprocessing=self.config.preprocessing,
            bag_of_words=self.bag_of_words,
            deobfuscate=self.config.deobfuscate,
        )
        self.normalizer: Normalizer = make_normalizer(
            self.config.normalization
            if self.config.normalization_enabled
            else "none",
            N_FEATURES,
        )
        self.model: StreamClassifier = create_model(self.config)
        self.evaluator = PrequentialEvaluator(
            n_classes=self.config.n_classes,
            window=self.config.evaluation_window,
            record_every=self.config.record_every,
        )
        self.alert_manager = AlertManager(
            AlertPolicy(
                aggressive_classes=self.encoder.aggressive_classes,
                min_confidence=self.config.alert_min_confidence,
            )
        )
        self.sampler = BoostedRandomSampler(
            capacity=self.config.sample_capacity,
            boost=self.config.sample_boost,
            aggressive_classes=self.encoder.aggressive_classes,
            seed=self.config.seed,
        )
        self.n_quarantined = 0
        # Observability: the registry is shared with whatever engine or
        # supervisor wraps this pipeline, and ``engine`` is its label.
        self._init_stages(
            metrics if metrics is not None else MetricsRegistry(), engine
        )
        self._m_alerts = self.metrics.counter("alerts_total", engine=engine)
        self.publish_gauges()

    @property
    def quarantines(self) -> bool:
        return self.dead_letters is not None

    def publish_gauges(self) -> None:
        """Refresh the point-in-time gauges (BoW size, normalizer state)."""
        gauge = self.metrics.gauge
        engine = self.engine_label
        gauge("bow_size", engine=engine).set(len(self.bag_of_words))
        if isinstance(self.bag_of_words, AdaptiveBagOfWords):
            gauge("bow_words_added", engine=engine).set(
                self.bag_of_words.n_added
            )
            gauge("bow_words_removed", engine=engine).set(
                self.bag_of_words.n_removed
            )
        gauge("normalizer_observed", engine=engine).set(
            self.normalizer.observed
        )
        gauge("normalizer_clip_ratio", engine=engine).set(
            self.normalizer.clip_ratio
        )

    @property
    def degrade_tier(self) -> DegradeTier:
        """The feature pipeline's current degrade tier."""
        return self.extractor.tier

    def set_degrade_tier(self, tier: DegradeTier) -> None:
        """Switch the feature pipeline's cost tier (overload control).

        Skipped features are imputed with a fixed constant, so the
        vector width and normalizer statistics stay valid across
        switches — see :class:`~repro.core.features.DegradeTier`.
        """
        self.extractor.tier = DegradeTier(tier)

    # ------------------------------------------------------------------
    # Per-tweet processing
    # ------------------------------------------------------------------

    def process(self, tweet: TweetItem) -> Optional[ClassifiedInstance]:
        """Run one tweet through the full pipeline: a block of one.

        Labeled tweets: extract → normalize → predict (prequential test)
        → evaluate → train. Unlabeled tweets: extract → normalize →
        predict → alert → sample.

        With a dead-letter queue attached, a tweet whose fallible
        stages fail is quarantined and ``None`` is returned instead of
        raising; see the module docstring for the failure model.

        Raises:
            repro.reliability.deadletter.CircuitOpenError: quarantine
                is enabled with a circuit breaker and the stream's
                failure rate exceeded the configured maximum.
        """
        out: List[ClassifiedInstance] = []
        self.process_block((tweet,), out)
        return out[0] if out else None

    def _predict(
        self,
        block: InstanceBlock,
        xs: List[Row],
        t_start: float,
        out: Optional[List[ClassifiedInstance]],
    ) -> int:
        """Prequential test-then-train → evaluate per labelled row; an
        unlabeled row is predicted, then goes to alerting and sampling.

        A labelled row is one ``test_then_train`` call, booked to the
        ``learn`` stage with its evaluation; ``predict`` books the
        unlabeled rows' predictions, spread over every row of the block,
        so the stage sums still cover the block.
        """
        predict = self.model.predict_proba_one
        test_then_train = self.model.test_then_train
        add_labeled = self.evaluator.add_labeled
        add_unlabeled = self.evaluator.add_unlabeled
        alert_manager = self.alert_manager
        aggressive = alert_manager.policy.aggressive_classes
        offer = self.sampler.offer
        alerts_before = alert_manager.n_alerts
        n_labeled = 0
        predict_s = learn_s = alert_s = 0.0
        t = t_start
        for x, y, timestamp, tweet_id, user_id in zip(
            xs, block.ys, block.timestamps, block.tweet_ids, block.user_ids
        ):
            instance = Instance(x, y, 1.0, timestamp, tweet_id)
            if y is not None:
                n_labeled += 1
                proba = test_then_train(instance)
                predicted = argmax(proba)
                add_labeled(y, predicted)
                if out is not None:
                    out.append(ClassifiedInstance(instance, predicted, proba))
                t_learned = perf_counter()
                learn_s += t_learned - t
                t = t_learned
                continue
            proba = predict(x)
            t_predicted = perf_counter()
            predict_s += t_predicted - t
            predicted = argmax(proba)
            add_unlabeled(predicted)
            classified = ClassifiedInstance(instance, predicted, proba)
            if predicted in aggressive:
                alert_manager.process(classified, user_id)
            offer(classified)
            if out is not None:
                out.append(classified)
            t = perf_counter()
            alert_s += t - t_predicted
        if alert_manager.n_alerts > alerts_before:
            self._m_alerts.inc(alert_manager.n_alerts - alerts_before)
        n = len(xs)
        n_unlabeled = n - n_labeled
        hists = self._stage_hists
        hists["predict"].observe_repeated(predict_s / n, n)
        if n_labeled:
            hists["learn"].observe_repeated(learn_s / n_labeled, n_labeled)
        if n_unlabeled:
            hists["alert"].observe_repeated(alert_s / n_unlabeled, n_unlabeled)
        if self.breaker is not None:
            self.breaker.record_batch(n, 0)
        return n_labeled

    def drain_unlabeled(
        self, block: ClassifiedBlock, user_ids: Sequence[Optional[str]]
    ) -> None:
        """Alert on and sample classified unlabeled tweets in one call.

        The batched form of a block's unlabeled tail, for a driver whose
        partitions already classified the tweets: one columnar block in
        stream order and the user id of each row.
        """
        before = self.alert_manager.n_alerts
        self.alert_manager.process_batch(block, user_ids)
        self.sampler.offer_many(block)
        if self.alert_manager.n_alerts > before:
            self._m_alerts.inc(self.alert_manager.n_alerts - before)

    def _quarantine(
        self, tweet_id: Optional[str], stage: str, exc: Exception
    ) -> None:
        """Route a poison tweet to the dead-letter queue; maybe trip."""
        assert self.dead_letters is not None
        self.n_quarantined += 1
        self.metrics.counter(
            "tweets_quarantined_total", engine=self.engine_label, stage=stage
        ).inc()
        self.dead_letters.add_failure(tweet_id, stage, exc)
        if self.breaker is not None:
            self.breaker.record(True)
            self.breaker.check()

    def predict(self, tweet: Tweet) -> Tuple[int, Tuple[float, ...]]:
        """Classify a tweet without touching any pipeline state."""
        instance = self.extractor.extract(tweet, update_bow=False)
        x = self.normalizer.transform(instance.x)
        proba = self.model.predict_proba_one(x)
        return argmax(proba), proba

    def predict_label(self, tweet: Tweet) -> str:
        """Class-name prediction for a tweet (stateless)."""
        predicted, _ = self.predict(tweet)
        return self.encoder.decode(predicted)

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------

    def process_stream(self, tweets: Iterable[TweetItem]) -> PipelineResult:
        """Run the pipeline over a tweet stream and summarize."""
        for tweet in tweets:
            self.process(tweet)
        return self.result()

    def result(self) -> PipelineResult:
        """Snapshot the run's metrics and counters."""
        if (
            self.evaluator.n_labeled % self.evaluator.record_every != 0
            and self.evaluator.n_labeled > 0
        ):
            self.evaluator.record_point()
        bow_history: List[Tuple[int, int]] = []
        if isinstance(self.bag_of_words, AdaptiveBagOfWords):
            bow_history = list(self.bag_of_words.size_history)
        self.publish_gauges()
        return PipelineResult(
            config=self.config,
            n_processed=self.n_processed,
            n_labeled=self.n_labeled,
            n_unlabeled=self.n_unlabeled,
            metrics=self.evaluator.summary(),
            history=list(self.evaluator.history),
            n_alerts=self.alert_manager.n_alerts,
            bow_size=len(self.bag_of_words),
            bow_size_history=bow_history,
            n_quarantined=self.n_quarantined,
        )


def run_pipeline(
    tweets: Iterable[TweetItem], config: Optional[PipelineConfig] = None
) -> PipelineResult:
    """One-shot convenience: build a pipeline and process a stream."""
    pipeline = AggressionDetectionPipeline(config)
    return pipeline.process_stream(tweets)

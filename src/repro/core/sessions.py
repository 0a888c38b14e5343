"""Session-level detection (the paper's future work, §VI).

Cyberbullying and trolling involve *repeated* hostile actions, so the
paper proposes detecting them over media sessions — groups of tweets
from the same user inside a time window — using the windowing
facilities of the stream processing engine. This module implements
that:

* :class:`TumblingWindowAssigner` — per-user, event-time tumbling
  windows with watermark-based expiry;
* :class:`Session` — a closed window with aggregate features
  (tweet count, aggressive fraction, mean/max of the per-tweet feature
  vector, burstiness);
* :class:`SessionDetectionPipeline` — runs the tweet-level pipeline and
  trains a second streaming classifier over the emitted sessions,
  flagging *bullying sessions* (sustained aggression) rather than
  single aggressive tweets.

A session's ground-truth label (when its tweets are labeled) is
"bullying" when at least ``bullying_threshold`` of its tweets are
aggressive — following the repeated-hostility definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.evaluation import PrequentialEvaluator
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.tweet import Tweet
from repro.streamml.base import StreamClassifier
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import ClassifiedInstance, Instance


@dataclass
class _OpenWindow:
    """A per-user window still accepting tweets."""

    user_id: str
    window_start: float
    window_end: float
    classified: List[ClassifiedInstance] = field(default_factory=list)


@dataclass
class Session:
    """A closed per-user window of classified tweets."""

    user_id: str
    window_start: float
    window_end: float
    n_tweets: int
    n_predicted_aggressive: int
    n_labeled: int
    n_labeled_aggressive: int
    features: Tuple[float, ...]

    def true_label(self, bullying_threshold: float) -> Optional[int]:
        """1 if the labeled tweets make this a bullying session."""
        if self.n_labeled == 0:
            return None
        fraction = self.n_labeled_aggressive / self.n_labeled
        return int(fraction >= bullying_threshold)


class TumblingWindowAssigner:
    """Per-user event-time tumbling windows with watermark expiry.

    Tweets are assigned to the window ``[k*size, (k+1)*size)`` of their
    user. A window closes when the *watermark* — the maximum event time
    seen minus ``allowed_lateness`` — passes its end; late tweets for
    closed windows are dropped (and counted).
    """

    def __init__(self, window_size: float, allowed_lateness: float = 0.0) -> None:
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        if allowed_lateness < 0:
            raise ValueError("allowed_lateness must be non-negative")
        self.window_size = window_size
        self.allowed_lateness = allowed_lateness
        self._open: Dict[Tuple[str, int], _OpenWindow] = {}
        self.watermark = float("-inf")
        self.n_late_dropped = 0

    def _window_index(self, timestamp: float) -> int:
        return int(timestamp // self.window_size)

    def add(
        self, user_id: str, classified: ClassifiedInstance
    ) -> List[_OpenWindow]:
        """Assign one classified tweet; returns windows newly closed."""
        timestamp = classified.instance.timestamp
        new_watermark = max(self.watermark, timestamp - self.allowed_lateness)
        index = self._window_index(timestamp)
        window_end = (index + 1) * self.window_size
        if window_end <= self.watermark:
            self.n_late_dropped += 1
        else:
            key = (user_id, index)
            window = self._open.get(key)
            if window is None:
                window = _OpenWindow(
                    user_id=user_id,
                    window_start=index * self.window_size,
                    window_end=window_end,
                )
                self._open[key] = window
            window.classified.append(classified)
        self.watermark = new_watermark
        return self._close_expired()

    def _close_expired(self) -> List[_OpenWindow]:
        closed = [
            window
            for window in self._open.values()
            if window.window_end <= self.watermark
        ]
        for window in closed:
            del self._open[(window.user_id, self._window_index(window.window_start))]
        closed.sort(key=lambda w: (w.window_end, w.user_id))
        return closed

    def flush(self) -> List[_OpenWindow]:
        """Close every remaining window (end of stream)."""
        remaining = sorted(
            self._open.values(), key=lambda w: (w.window_end, w.user_id)
        )
        self._open.clear()
        return remaining


SESSION_FEATURE_NAMES: Tuple[str, ...] = (
    "nTweets",
    "predictedAggressiveFraction",
    "meanAggressiveConfidence",
    "maxAggressiveConfidence",
    "meanSwearFeature",
    "maxSwearFeature",
    "meanNegativeSentiment",
    "tweetsPerHour",
)


def _session_from_window(
    window: _OpenWindow,
    aggressive_classes: Tuple[int, ...],
    swear_index: int,
    neg_sentiment_index: int,
) -> Session:
    classified = window.classified
    n = len(classified)
    aggressive = [c for c in classified if c.predicted in aggressive_classes]
    confidences = [
        sum(c.proba[cls] for cls in aggressive_classes if cls < len(c.proba))
        for c in classified
    ]
    swears = [c.instance.x[swear_index] for c in classified]
    negatives = [c.instance.x[neg_sentiment_index] for c in classified]
    span_hours = max((window.window_end - window.window_start) / 3600.0, 1e-9)
    labeled = [c for c in classified if c.instance.y is not None]
    features = (
        float(n),
        len(aggressive) / n if n else 0.0,
        sum(confidences) / n if n else 0.0,
        max(confidences) if confidences else 0.0,
        sum(swears) / n if n else 0.0,
        max(swears) if swears else 0.0,
        sum(negatives) / n if n else 0.0,
        n / span_hours,
    )
    return Session(
        user_id=window.user_id,
        window_start=window.window_start,
        window_end=window.window_end,
        n_tweets=n,
        n_predicted_aggressive=len(aggressive),
        n_labeled=len(labeled),
        n_labeled_aggressive=sum(
            1 for c in labeled if c.instance.y in aggressive_classes
        ),
        features=features,
    )


@dataclass
class SessionResult:
    """Outcome of a session-level run."""

    n_sessions: int
    n_bullying_predicted: int
    metrics: Dict[str, float]
    flagged_users: List[str]


class SessionDetectionPipeline:
    """Two-level detector: per-tweet pipeline + per-session classifier.

    Args:
        config: tweet-level pipeline configuration.
        window_size: session window length in seconds (e.g. a day).
        allowed_lateness: watermark slack for out-of-order tweets.
        bullying_threshold: fraction of aggressive tweets that makes a
            labeled session a "bullying" session.
        session_model: streaming classifier over session features
            (defaults to a Hoeffding Tree).
        min_session_tweets: ignore windows with fewer tweets.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        window_size: float = 6 * 3600.0,
        allowed_lateness: float = 0.0,
        bullying_threshold: float = 0.5,
        session_model: Optional[StreamClassifier] = None,
        min_session_tweets: int = 2,
    ) -> None:
        if not 0.0 < bullying_threshold <= 1.0:
            raise ValueError("bullying_threshold must be in (0, 1]")
        self.tweet_pipeline = AggressionDetectionPipeline(config)
        self.windows = TumblingWindowAssigner(window_size, allowed_lateness)
        self.bullying_threshold = bullying_threshold
        self.session_model = (
            session_model if session_model is not None
            else HoeffdingTree(n_classes=2, grace_period=50)
        )
        self.min_session_tweets = min_session_tweets
        self.evaluator = PrequentialEvaluator(n_classes=2, record_every=100)
        self.sessions: List[Session] = []
        self.flagged_users: Dict[str, int] = {}
        extractor = self.tweet_pipeline.extractor
        self._swear_index = extractor.feature_index("cntSwearWords")
        self._neg_index = extractor.feature_index("sentimentScoreNeg")

    def process(self, tweet: Tweet) -> List[Session]:
        """Process one tweet; returns any sessions that closed."""
        classified = self.tweet_pipeline.process(tweet)
        closed = self.windows.add(tweet.user.user_id, classified)
        return [self._emit(window) for window in closed
                if len(window.classified) >= self.min_session_tweets]

    def _emit(self, window: _OpenWindow) -> Session:
        session = _session_from_window(
            window,
            aggressive_classes=self.tweet_pipeline.encoder.aggressive_classes,
            swear_index=self._swear_index,
            neg_sentiment_index=self._neg_index,
        )
        self.sessions.append(session)
        predicted = self.session_model.predict_one(session.features)
        if predicted == 1:
            self.flagged_users[session.user_id] = (
                self.flagged_users.get(session.user_id, 0) + 1
            )
        true = session.true_label(self.bullying_threshold)
        if true is not None:
            self.evaluator.add_labeled(true, predicted)
            self.session_model.learn_one(
                Instance(x=session.features, y=true,
                         timestamp=session.window_end)
            )
        return session

    def process_stream(self, tweets: Iterable[Tweet]) -> SessionResult:
        """Process a whole stream, flushing open windows at the end."""
        for tweet in tweets:
            self.process(tweet)
        for window in self.windows.flush():
            if len(window.classified) >= self.min_session_tweets:
                self._emit(window)
        n_bullying = sum(
            1 for s in self.sessions
            if s.true_label(self.bullying_threshold) == 1
        )
        return SessionResult(
            n_sessions=len(self.sessions),
            n_bullying_predicted=sum(self.flagged_users.values()),
            metrics=self.evaluator.summary(),
            flagged_users=sorted(
                self.flagged_users,
                key=self.flagged_users.get,  # type: ignore[arg-type]
                reverse=True,
            ),
        )

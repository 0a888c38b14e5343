"""Evaluation (Fig. 1, step 7): prequential metrics over the stream.

Labeled instances are first used to *test* the model and then to
*train* it (the prequential scheme of §V-A). The evaluator maintains a
cumulative confusion matrix, a sliding-window confusion matrix for
time-series plots (the F1-vs-tweets curves of Figs. 6-9 and 11-14),
and per-class statistics. Unlabeled instances contribute to the
predicted-label distribution statistics (§III-A, Evaluation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple


class ConfusionMatrix:
    """Dense confusion matrix with derived classification metrics."""

    def __init__(self, n_classes: int) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.n_classes = n_classes
        self.matrix: List[List[float]] = [
            [0.0] * n_classes for _ in range(n_classes)
        ]
        self.total = 0.0

    def add(self, true: int, predicted: int, weight: float = 1.0) -> None:
        """Record one (true, predicted) outcome."""
        self.matrix[true][predicted] += weight
        self.total += weight

    def remove(self, true: int, predicted: int, weight: float = 1.0) -> None:
        """Remove one outcome (for sliding-window evaluation)."""
        self.matrix[true][predicted] -= weight
        self.total -= weight

    @property
    def accuracy(self) -> float:
        """Fraction of correct predictions."""
        if self.total <= 0:
            return 0.0
        correct = sum(self.matrix[i][i] for i in range(self.n_classes))
        return correct / self.total

    def support(self, cls: int) -> float:
        """Number of true instances of a class."""
        return sum(self.matrix[cls])

    def precision(self, cls: int) -> float:
        """Per-class precision (0 when the class was never predicted)."""
        predicted = sum(self.matrix[row][cls] for row in range(self.n_classes))
        if predicted <= 0:
            return 0.0
        return self.matrix[cls][cls] / predicted

    def recall(self, cls: int) -> float:
        """Per-class recall (0 when the class never occurred)."""
        actual = self.support(cls)
        if actual <= 0:
            return 0.0
        return self.matrix[cls][cls] / actual

    def f1(self, cls: int) -> float:
        """Per-class F1."""
        p = self.precision(cls)
        r = self.recall(cls)
        if p + r <= 0:
            return 0.0
        return 2 * p * r / (p + r)

    def _weighted(self, per_class: Sequence[float]) -> float:
        if self.total <= 0:
            return 0.0
        return sum(
            per_class[cls] * self.support(cls) for cls in range(self.n_classes)
        ) / self.total

    @property
    def weighted_precision(self) -> float:
        """Support-weighted average precision (the paper's headline style)."""
        return self._weighted([self.precision(c) for c in range(self.n_classes)])

    @property
    def weighted_recall(self) -> float:
        """Support-weighted average recall."""
        return self._weighted([self.recall(c) for c in range(self.n_classes)])

    @property
    def weighted_f1(self) -> float:
        """Support-weighted average F1."""
        return self._weighted([self.f1(c) for c in range(self.n_classes)])

    @property
    def macro_f1(self) -> float:
        """Unweighted average F1 across classes."""
        return sum(self.f1(c) for c in range(self.n_classes)) / self.n_classes

    @property
    def kappa(self) -> float:
        """Cohen's kappa: agreement above chance (MOA's standard metric).

        0 means no better than the chance agreement implied by the
        marginal distributions; 1 is perfect; negative is worse than
        chance.
        """
        if self.total <= 0:
            return 0.0
        observed = self.accuracy
        expected = 0.0
        for cls in range(self.n_classes):
            actual = self.support(cls) / self.total
            predicted = (
                sum(self.matrix[row][cls] for row in range(self.n_classes))
                / self.total
            )
            expected += actual * predicted
        if expected >= 1.0:
            return 0.0
        return (observed - expected) / (1.0 - expected)

    @property
    def kappa_m(self) -> float:
        """Kappa versus the majority-class baseline (MOA's Kappa-M).

        Corrects for class imbalance: 0 means no better than always
        predicting the most frequent class.
        """
        if self.total <= 0:
            return 0.0
        majority = max(
            self.support(cls) for cls in range(self.n_classes)
        ) / self.total
        if majority >= 1.0:
            return 0.0
        return (self.accuracy - majority) / (1.0 - majority)

    def copy(self) -> "ConfusionMatrix":
        """Independent copy."""
        out = ConfusionMatrix(self.n_classes)
        out.matrix = [list(row) for row in self.matrix]
        out.total = self.total
        return out

    def merge(self, other: "ConfusionMatrix") -> None:
        """Fold another matrix (e.g. a partition's local statistics)."""
        if other.n_classes != self.n_classes:
            raise ValueError("class-count mismatch in merge")
        for row in range(self.n_classes):
            for col in range(self.n_classes):
                self.matrix[row][col] += other.matrix[row][col]
        self.total += other.total

    def as_dict(self) -> Dict[str, float]:
        """Summary metrics as a flat dict."""
        return {
            "accuracy": self.accuracy,
            "precision": self.weighted_precision,
            "recall": self.weighted_recall,
            "f1": self.weighted_f1,
            "macro_f1": self.macro_f1,
            "kappa": self.kappa,
            "kappa_m": self.kappa_m,
        }


@dataclass
class MetricsPoint:
    """One point of the metric-vs-tweets time series."""

    n_seen: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    window_f1: float
    window_accuracy: float


@dataclass
class PredictionStats:
    """Predicted-label distribution over the unlabeled stream."""

    counts: Dict[int, int] = field(default_factory=dict)
    total: int = 0

    def add(self, predicted: int) -> None:
        """Record one unlabeled prediction."""
        self.counts[predicted] = self.counts.get(predicted, 0) + 1
        self.total += 1

    def fraction(self, cls: int) -> float:
        """Share of unlabeled traffic predicted as this class."""
        if self.total == 0:
            return 0.0
        return self.counts.get(cls, 0) / self.total


class PrequentialEvaluator:
    """Cumulative + sliding-window prequential evaluation.

    Args:
        n_classes: number of classes.
        window: sliding-window width for the time-series metrics.
        record_every: distance (in labeled instances) between recorded
            time-series points.
    """

    def __init__(
        self, n_classes: int, window: int = 1000, record_every: int = 500
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.n_classes = n_classes
        self.window = window
        self.record_every = record_every
        self.cumulative = ConfusionMatrix(n_classes)
        self.windowed = ConfusionMatrix(n_classes)
        self._window_contents: Deque[Tuple[int, int]] = deque()
        self.history: List[MetricsPoint] = []
        self.n_labeled = 0
        self.unlabeled_stats = PredictionStats()

    def add_labeled(self, true: int, predicted: int) -> None:
        """Record the prediction for one labeled instance (pre-training)."""
        self.n_labeled += 1
        self.cumulative.add(true, predicted)
        self.windowed.add(true, predicted)
        self._window_contents.append((true, predicted))
        if len(self._window_contents) > self.window:
            old_true, old_pred = self._window_contents.popleft()
            self.windowed.remove(old_true, old_pred)
        if self.n_labeled % self.record_every == 0:
            self.record_point()

    def add_unlabeled(self, predicted: int) -> None:
        """Record the predicted class of an unlabeled instance."""
        self.unlabeled_stats.add(predicted)

    def record_point(self) -> MetricsPoint:
        """Append the current metrics to the time series."""
        point = MetricsPoint(
            n_seen=self.n_labeled,
            accuracy=self.cumulative.accuracy,
            precision=self.cumulative.weighted_precision,
            recall=self.cumulative.weighted_recall,
            f1=self.cumulative.weighted_f1,
            window_f1=self.windowed.weighted_f1,
            window_accuracy=self.windowed.accuracy,
        )
        self.history.append(point)
        return point

    def summary(self) -> Dict[str, float]:
        """Final cumulative metrics."""
        return self.cumulative.as_dict()

    def curve(self, metric: str = "f1") -> List[Tuple[int, float]]:
        """The (n_seen, metric) time series for plotting."""
        return [(p.n_seen, getattr(p, metric)) for p in self.history]

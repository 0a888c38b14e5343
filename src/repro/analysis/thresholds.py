"""Alert-threshold tuning: precision/recall tradeoffs.

Moderation teams have finite capacity, so the alert confidence
threshold (§III-A) is an operating point: higher thresholds send fewer,
more precise alerts. This module computes the precision-recall curve of
"aggressive" alerts over a scored validation stream and selects
the threshold that meets a target precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.streamml.instance import ClassifiedInstance


@dataclass(frozen=True)
class OperatingPoint:
    """One alert-threshold operating point."""

    threshold: float
    precision: float
    recall: float
    n_alerts: int

    @property
    def f1(self) -> float:
        if self.precision + self.recall == 0:
            return 0.0
        return (
            2 * self.precision * self.recall
            / (self.precision + self.recall)
        )


def _score_and_truth(
    classified: Sequence[ClassifiedInstance],
    aggressive_classes: Tuple[int, ...],
) -> List[Tuple[float, bool]]:
    pairs: List[Tuple[float, bool]] = []
    for item in classified:
        if item.instance.y is None:
            continue
        score = sum(
            item.proba[cls]
            for cls in aggressive_classes
            if cls < len(item.proba)
        )
        pairs.append((score, item.instance.y in aggressive_classes))
    if not pairs:
        raise ValueError("no labeled instances to evaluate thresholds on")
    return pairs


def pr_curve(
    classified: Sequence[ClassifiedInstance],
    aggressive_classes: Tuple[int, ...] = (1,),
) -> List[OperatingPoint]:
    """Operating points at every distinct aggressive-probability score.

    Points are ordered by increasing threshold; each counts an alert
    whenever the summed aggressive-class probability >= threshold.
    """
    pairs = _score_and_truth(classified, aggressive_classes)
    pairs.sort(key=lambda p: p[0], reverse=True)
    total_positive = sum(1 for _, truth in pairs if truth)
    points: List[OperatingPoint] = []
    true_positive = 0
    alerts = 0
    index = 0
    while index < len(pairs):
        threshold = pairs[index][0]
        # Consume every score tied at this threshold.
        while index < len(pairs) and pairs[index][0] == threshold:
            alerts += 1
            if pairs[index][1]:
                true_positive += 1
            index += 1
        precision = true_positive / alerts
        recall = (
            true_positive / total_positive if total_positive > 0 else 0.0
        )
        points.append(
            OperatingPoint(
                threshold=threshold,
                precision=precision,
                recall=recall,
                n_alerts=alerts,
            )
        )
    points.reverse()  # increasing threshold
    return points


def threshold_for_precision(
    classified: Sequence[ClassifiedInstance],
    target_precision: float,
    aggressive_classes: Tuple[int, ...] = (1,),
) -> Optional[OperatingPoint]:
    """Lowest-threshold point meeting the precision target.

    Lower threshold = more recall, so this maximizes recall subject to
    the precision constraint. Returns ``None`` when no threshold
    reaches the target.
    """
    if not 0.0 < target_precision <= 1.0:
        raise ValueError("target_precision must be in (0, 1]")
    candidates = [
        point
        for point in pr_curve(classified, aggressive_classes)
        if point.precision >= target_precision
    ]
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.recall)

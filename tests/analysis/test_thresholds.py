"""Tests for alert-threshold tuning."""

from __future__ import annotations

import random

import pytest

from repro.analysis.thresholds import pr_curve, threshold_for_precision
from repro.streamml.instance import ClassifiedInstance, Instance


def _scored(score, truth):
    return ClassifiedInstance(
        instance=Instance(x=(0.0,), y=int(truth)),
        predicted=int(score >= 0.5),
        proba=(1 - score, score),
    )


def _perfect_set():
    # Aggressive tweets scored high, normal scored low.
    return (
        [_scored(0.9, True) for _ in range(10)]
        + [_scored(0.1, False) for _ in range(30)]
    )


def _noisy_set(seed=0, n=600, flip=0.2):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        truth = rng.random() < 0.3
        base = 0.75 if truth else 0.25
        if rng.random() < flip:
            base = 1.0 - base
        out.append(_scored(min(max(rng.gauss(base, 0.1), 0.0), 1.0), truth))
    return out


class TestPrCurve:
    def test_no_labeled_instances(self):
        unlabeled = [ClassifiedInstance(Instance(x=(0.0,)), 0, (1.0, 0.0))]
        with pytest.raises(ValueError):
            pr_curve(unlabeled)

    def test_perfect_separation(self):
        points = pr_curve(_perfect_set())
        high = [p for p in points if p.threshold > 0.5]
        assert all(p.precision == 1.0 for p in high)
        assert max(p.recall for p in high) == 1.0

    def test_thresholds_increasing(self):
        points = pr_curve(_noisy_set())
        thresholds = [p.threshold for p in points]
        assert thresholds == sorted(thresholds)

    def test_alert_count_decreases_with_threshold(self):
        points = pr_curve(_noisy_set())
        alerts = [p.n_alerts for p in points]
        assert alerts == sorted(alerts, reverse=True)

    def test_lowest_threshold_alerts_everything(self):
        data = _noisy_set()
        points = pr_curve(data)
        assert points[0].n_alerts == len(data)
        assert points[0].recall == 1.0


class TestThresholdSelection:
    def test_invalid_target(self):
        with pytest.raises(ValueError):
            threshold_for_precision(_perfect_set(), target_precision=0.0)

    def test_meets_precision_target(self):
        point = threshold_for_precision(_noisy_set(), target_precision=0.85)
        assert point is not None
        assert point.precision >= 0.85

    def test_maximizes_recall_at_target(self):
        data = _noisy_set()
        chosen = threshold_for_precision(data, target_precision=0.8)
        for point in pr_curve(data):
            if point.precision >= 0.8:
                assert point.recall <= chosen.recall + 1e-12

    def test_unreachable_target(self):
        assert threshold_for_precision(
            _noisy_set(flip=0.5), target_precision=0.999
        ) is None


class TestEndToEnd:
    def test_pipeline_scores_tune_well(self, medium_stream):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import AggressionDetectionPipeline

        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        classified = [pipeline.process(t) for t in medium_stream[:4000]]
        # Skip the cold-start prefix where scores are uninformative.
        # The synthetic stream's content-ambiguous fraction caps the
        # reachable precision near ~0.89, so 0.85 is a demanding but
        # reachable target.
        point = threshold_for_precision(
            classified[500:], target_precision=0.85
        )
        assert point is not None
        assert point.recall > 0.5

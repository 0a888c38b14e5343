"""Tests for confusion matrices and the prequential evaluator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import (
    ConfusionMatrix,
    PrequentialEvaluator,
)

pairs = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=200
)


class TestConfusionMatrix:
    def test_perfect_predictions(self):
        matrix = ConfusionMatrix(2)
        for cls in (0, 1, 0, 1):
            matrix.add(cls, cls)
        assert matrix.accuracy == 1.0
        assert matrix.weighted_f1 == 1.0

    def test_all_wrong(self):
        matrix = ConfusionMatrix(2)
        matrix.add(0, 1)
        matrix.add(1, 0)
        assert matrix.accuracy == 0.0
        assert matrix.weighted_f1 == 0.0

    def test_known_values(self):
        matrix = ConfusionMatrix(2)
        # TP=8 (class1), FN=2, FP=1, TN=9.
        for _ in range(8):
            matrix.add(1, 1)
        for _ in range(2):
            matrix.add(1, 0)
        matrix.add(0, 1)
        for _ in range(9):
            matrix.add(0, 0)
        assert matrix.precision(1) == pytest.approx(8 / 9)
        assert matrix.recall(1) == pytest.approx(0.8)
        expected_f1 = 2 * (8 / 9) * 0.8 / ((8 / 9) + 0.8)
        assert matrix.f1(1) == pytest.approx(expected_f1)
        assert matrix.accuracy == pytest.approx(17 / 20)

    def test_never_predicted_class(self):
        matrix = ConfusionMatrix(3)
        matrix.add(0, 0)
        matrix.add(2, 0)
        assert matrix.precision(1) == 0.0
        assert matrix.recall(1) == 0.0
        assert matrix.f1(1) == 0.0

    def test_empty_matrix(self):
        matrix = ConfusionMatrix(2)
        assert matrix.accuracy == 0.0
        assert matrix.weighted_f1 == 0.0

    def test_remove_reverses_add(self):
        matrix = ConfusionMatrix(2)
        matrix.add(0, 1)
        matrix.add(1, 1)
        matrix.remove(0, 1)
        assert matrix.accuracy == 1.0
        assert matrix.total == 1

    @given(pairs)
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, data):
        matrix = ConfusionMatrix(3)
        for true, pred in data:
            matrix.add(true, pred)
        assert 0.0 <= matrix.accuracy <= 1.0
        assert 0.0 <= matrix.weighted_f1 <= 1.0
        assert 0.0 <= matrix.macro_f1 <= 1.0
        assert matrix.total == len(data)
        # Weighted recall equals accuracy for single-label problems.
        assert matrix.weighted_recall == pytest.approx(matrix.accuracy)

    @given(pairs, pairs)
    @settings(max_examples=40, deadline=None)
    def test_merge_equals_union(self, left, right):
        merged = ConfusionMatrix(3)
        for true, pred in left + right:
            merged.add(true, pred)
        a = ConfusionMatrix(3)
        b = ConfusionMatrix(3)
        for true, pred in left:
            a.add(true, pred)
        for true, pred in right:
            b.add(true, pred)
        a.merge(b)
        assert a.matrix == merged.matrix

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(2).merge(ConfusionMatrix(3))

    def test_copy_independent(self):
        matrix = ConfusionMatrix(2)
        matrix.add(0, 0)
        copy = matrix.copy()
        copy.add(1, 1)
        assert matrix.total == 1
        assert copy.total == 2

    def test_as_dict_keys(self):
        keys = set(ConfusionMatrix(2).as_dict())
        assert keys == {
            "accuracy", "precision", "recall", "f1", "macro_f1",
            "kappa", "kappa_m",
        }

    def test_kappa_perfect_and_chance(self):
        perfect = ConfusionMatrix(2)
        for cls in (0, 1, 0, 1):
            perfect.add(cls, cls)
        assert perfect.kappa == pytest.approx(1.0)
        # Predictions independent of truth -> kappa ~ 0.
        chance = ConfusionMatrix(2)
        for true in (0, 1):
            for pred in (0, 1):
                chance.add(true, pred, weight=25)
        assert chance.kappa == pytest.approx(0.0)

    def test_kappa_m_majority_baseline_is_zero(self):
        matrix = ConfusionMatrix(2)
        # Always predict the majority class 0 on a 90/10 stream.
        for _ in range(90):
            matrix.add(0, 0)
        for _ in range(10):
            matrix.add(1, 0)
        assert matrix.accuracy == pytest.approx(0.9)
        assert matrix.kappa_m == pytest.approx(0.0)

    def test_kappa_m_rewards_minority_skill(self):
        matrix = ConfusionMatrix(2)
        for _ in range(90):
            matrix.add(0, 0)
        for _ in range(8):
            matrix.add(1, 1)
        for _ in range(2):
            matrix.add(1, 0)
        assert matrix.kappa_m > 0.7

    def test_kappa_empty(self):
        assert ConfusionMatrix(2).kappa == 0.0
        assert ConfusionMatrix(2).kappa_m == 0.0


class TestPrequentialEvaluator:
    def test_records_points(self):
        evaluator = PrequentialEvaluator(n_classes=2, record_every=10)
        for i in range(35):
            evaluator.add_labeled(i % 2, i % 2)
        assert len(evaluator.history) == 3
        assert evaluator.history[-1].n_seen == 30

    def test_window_tracks_recent_performance(self):
        evaluator = PrequentialEvaluator(n_classes=2, window=100, record_every=10 ** 9)
        # 500 correct, then 100 wrong: window should reflect the recent dip.
        for _ in range(500):
            evaluator.add_labeled(1, 1)
        for _ in range(100):
            evaluator.add_labeled(1, 0)
        evaluator.record_point()
        point = evaluator.history[-1]
        assert point.accuracy > 0.8  # cumulative still high
        assert point.window_accuracy == 0.0  # window all wrong

    def test_unlabeled_distribution(self):
        evaluator = PrequentialEvaluator(n_classes=2)
        for _ in range(3):
            evaluator.add_unlabeled(1)
        evaluator.add_unlabeled(0)
        assert evaluator.unlabeled_stats.fraction(1) == 0.75

    def test_curve(self):
        evaluator = PrequentialEvaluator(n_classes=2, record_every=5)
        for _ in range(10):
            evaluator.add_labeled(0, 0)
        curve = evaluator.curve("accuracy")
        assert curve == [(5, 1.0), (10, 1.0)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PrequentialEvaluator(n_classes=2, window=0)
        with pytest.raises(ValueError):
            PrequentialEvaluator(n_classes=2, record_every=0)

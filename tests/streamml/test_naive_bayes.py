"""Tests for Gaussian naive Bayes (standalone + the statistics table)."""

from __future__ import annotations

import math
import random

import pytest

from repro.streamml.instance import Instance
from repro.streamml.naive_bayes import (
    GaussianNaiveBayes,
    GaussianTable,
    gaussian_pdf,
)


class TestGaussianPdf:
    def test_peak_at_mean(self):
        assert gaussian_pdf(0.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi)
        )

    def test_symmetric(self):
        assert gaussian_pdf(1.0, 0.0, 1.0) == pytest.approx(
            gaussian_pdf(-1.0, 0.0, 1.0)
        )

    def test_zero_std_floored(self):
        # Must not divide by zero.
        assert gaussian_pdf(0.0, 0.0, 0.0) > 0


class TestGaussianTable:
    def test_unseen_class_votes_with_its_prior_alone(self):
        table = GaussianTable(n_classes=2, n_features=1)
        for v in (4.0, 5.0, 6.0):
            table.update((v,), label=0, weight=1.0)
        # Equal priors: class 1 has no density to multiply in, so its
        # vote is the prior itself and beats any density below 1.
        near, far = table.votes((5.0,), [1.0, 1.0], 2.0)
        assert near == pytest.approx(gaussian_pdf(5.0, 5.0, math.sqrt(2 / 3)))
        assert far == 1.0

    def test_vote_higher_near_mean(self):
        table = GaussianTable(n_classes=2, n_features=1)
        for v in (4.0, 5.0, 6.0):
            table.update((v,), label=0, weight=1.0)
            table.update((v - 5.0,), label=1, weight=1.0)
        counts = [3.0, 3.0]
        assert table.votes((5.0,), counts, 6.0)[0] == 1.0
        assert table.votes((0.0,), counts, 6.0)[1] == 1.0

    def test_merge_combines_counts(self):
        a = GaussianTable(n_classes=2, n_features=1)
        b = GaussianTable(n_classes=2, n_features=1)
        a.update((1.0,), 0, 1.0)
        b.update((3.0,), 0, 1.0)
        a.merge(b)
        assert a.weights[0] == 2
        assert a.means[0][0] == pytest.approx(2.0)
        assert (a.lo, a.hi, a.n_ranged) == ([1.0], [3.0], 2)


class TestGaussianNaiveBayes:
    def test_uniform_before_training(self):
        model = GaussianNaiveBayes(n_classes=4)
        assert model.predict_proba_one((1.0,)) == pytest.approx((0.25,) * 4)

    def test_learns_gaussians(self):
        rng = random.Random(0)
        model = GaussianNaiveBayes(n_classes=2)
        for _ in range(2000):
            label = rng.random() < 0.5
            model.learn_one(
                Instance(x=(rng.gauss(2.0 if label else -2.0, 1.0),), y=int(label))
            )
        correct = 0
        for _ in range(500):
            label = rng.random() < 0.5
            x = (rng.gauss(2.0 if label else -2.0, 1.0),)
            correct += model.predict_one(x) == int(label)
        assert correct / 500 > 0.93

    def test_priors_affect_prediction(self):
        model = GaussianNaiveBayes(n_classes=2)
        # 9:1 class imbalance, identical feature distribution.
        for _ in range(90):
            model.learn_one(Instance(x=(0.0,), y=0))
        for _ in range(10):
            model.learn_one(Instance(x=(0.0,), y=1))
        assert model.predict_one((0.0,)) == 0

    def test_feature_count_mismatch_raises(self):
        model = GaussianNaiveBayes(n_classes=2)
        model.learn_one(Instance(x=(1.0, 2.0), y=0))
        with pytest.raises(ValueError):
            model.learn_one(Instance(x=(1.0,), y=1))

    def test_merge_equivalent_to_sequential(self):
        rng = random.Random(1)
        data = [
            Instance(x=(rng.gauss(0, 1), rng.gauss(1, 2)), y=rng.randrange(2))
            for _ in range(400)
        ]
        together = GaussianNaiveBayes(n_classes=2)
        together.learn_many(data)
        a = GaussianNaiveBayes(n_classes=2)
        b = GaussianNaiveBayes(n_classes=2)
        a.learn_many(data[:200])
        b.learn_many(data[200:])
        a.merge(b)
        probe = (0.3, 0.8)
        assert a.predict_proba_one(probe) == pytest.approx(
            together.predict_proba_one(probe), rel=1e-6
        )

    def test_merge_wrong_type(self):
        from repro.streamml.majority import NoChangeClassifier

        model = GaussianNaiveBayes(n_classes=2)
        with pytest.raises(TypeError):
            model.merge(NoChangeClassifier(2))

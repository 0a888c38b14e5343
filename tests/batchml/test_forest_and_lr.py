"""Tests for the batch random forest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batchml.random_forest import BatchRandomForest


def _data(n, rng, sep=3.0, n_features=4):
    y = rng.randint(0, 2, size=n)
    X = rng.randn(n, n_features)
    X[:, 0] += y * sep
    X[:, 1] -= y * sep / 2
    return X, y


class TestRandomForest:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            BatchRandomForest(n_classes=2, n_trees=0)

    def test_learns(self):
        rng = np.random.RandomState(0)
        X, y = _data(1500, rng)
        Xt, yt = _data(400, rng)
        forest = BatchRandomForest(n_classes=2, n_trees=10, random_state=1)
        forest.fit(X, y)
        assert (forest.predict(Xt) == yt).mean() > 0.9

    def test_beats_or_matches_single_tree_on_noise(self):
        rng = np.random.RandomState(1)
        X, y = _data(1200, rng, sep=1.2, n_features=8)
        Xt, yt = _data(400, rng, sep=1.2, n_features=8)
        from repro.batchml.decision_tree import BatchDecisionTree

        tree_acc = (
            BatchDecisionTree(n_classes=2).fit(X, y).predict(Xt) == yt
        ).mean()
        forest_acc = (
            BatchRandomForest(n_classes=2, n_trees=20, random_state=2)
            .fit(X, y)
            .predict(Xt)
            == yt
        ).mean()
        assert forest_acc >= tree_acc - 0.03

    def test_importances_normalized(self):
        rng = np.random.RandomState(2)
        X, y = _data(800, rng)
        forest = BatchRandomForest(n_classes=2, n_trees=5, random_state=3)
        forest.fit(X, y)
        importances = forest.feature_importances_
        assert importances.shape == (4,)
        assert importances.sum() == pytest.approx(1.0)
        assert importances[0] == max(importances)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            BatchRandomForest(n_classes=2).predict(np.zeros((1, 2)))

    def test_deterministic_given_seed(self):
        rng = np.random.RandomState(3)
        X, y = _data(500, rng)
        a = BatchRandomForest(n_classes=2, n_trees=5, random_state=7).fit(X, y)
        b = BatchRandomForest(n_classes=2, n_trees=5, random_state=7).fit(X, y)
        probe = X[:20]
        assert np.array_equal(a.predict(probe), b.predict(probe))

"""Tests for the batch decision tree."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batchml.decision_tree import BatchDecisionTree, instances_to_arrays
from repro.streamml.instance import Instance


def _gaussian_data(n, rng, sep=3.0, n_features=3):
    y = rng.randint(0, 2, size=n)
    X = rng.randn(n, n_features)
    X[:, 0] += y * sep
    return X, y


class TestConstruction:
    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            BatchDecisionTree(n_classes=2, criterion="chi")

    def test_invalid_classes(self):
        with pytest.raises(ValueError):
            BatchDecisionTree(n_classes=1)

    def test_predict_before_fit(self):
        tree = BatchDecisionTree(n_classes=2)
        with pytest.raises(RuntimeError):
            tree.predict(np.zeros((1, 2)))


class TestFitting:
    def test_empty_dataset(self):
        tree = BatchDecisionTree(n_classes=2)
        with pytest.raises(ValueError):
            tree.fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_length_mismatch(self):
        tree = BatchDecisionTree(n_classes=2)
        with pytest.raises(ValueError):
            tree.fit(np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_learns_separable_data(self):
        rng = np.random.RandomState(0)
        X, y = _gaussian_data(2000, rng)
        Xt, yt = _gaussian_data(500, rng)
        tree = BatchDecisionTree(n_classes=2).fit(X, y)
        accuracy = (tree.predict(Xt) == yt).mean()
        assert accuracy > 0.9

    def test_pure_node_stays_leaf(self):
        X = np.random.RandomState(1).randn(50, 2)
        y = np.zeros(50, dtype=int)
        tree = BatchDecisionTree(n_classes=2).fit(X, y)
        assert tree.n_nodes == 1

    def test_max_depth(self):
        rng = np.random.RandomState(2)
        X, y = _gaussian_data(3000, rng)
        tree = BatchDecisionTree(n_classes=2, max_depth=2).fit(X, y)

        def depth(node):
            if node.is_leaf:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(tree._root) <= 2

    def test_min_samples_leaf(self):
        rng = np.random.RandomState(3)
        X, y = _gaussian_data(100, rng)
        tree = BatchDecisionTree(
            n_classes=2, min_samples_leaf=40, min_samples_split=80
        ).fit(X, y)
        # With such harsh limits the tree can split at most once.
        assert tree.n_nodes <= 3

    def test_three_classes(self):
        rng = np.random.RandomState(4)
        y = rng.randint(0, 3, size=3000)
        X = rng.randn(3000, 2)
        X[:, 0] += y * 4.0
        tree = BatchDecisionTree(n_classes=3).fit(X, y)
        accuracy = (tree.predict(X) == y).mean()
        assert accuracy > 0.9

    def test_gini_criterion(self):
        rng = np.random.RandomState(5)
        X, y = _gaussian_data(1500, rng)
        tree = BatchDecisionTree(n_classes=2, criterion="gini").fit(X, y)
        assert (tree.predict(X) == y).mean() > 0.9


class TestProbabilities:
    def test_rows_sum_to_one(self):
        rng = np.random.RandomState(6)
        X, y = _gaussian_data(800, rng)
        tree = BatchDecisionTree(n_classes=2).fit(X, y)
        proba = tree.predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestImportances:
    def test_informative_feature_dominates(self):
        rng = np.random.RandomState(7)
        X, y = _gaussian_data(3000, rng, sep=4.0)
        tree = BatchDecisionTree(n_classes=2).fit(X, y)
        importances = tree.feature_importances_
        assert importances[0] == max(importances)
        assert importances.sum() == pytest.approx(1.0)

    def test_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            _ = BatchDecisionTree(n_classes=2).feature_importances_


class TestInstancesToArrays:
    def test_conversion(self):
        instances = [
            Instance(x=(1.0, 2.0), y=0),
            Instance(x=(3.0, 4.0), y=1),
            Instance(x=(5.0, 6.0)),  # unlabeled dropped
        ]
        X, y = instances_to_arrays(instances)
        assert X.shape == (2, 2)
        assert list(y) == [0, 1]

    def test_no_labeled(self):
        with pytest.raises(ValueError):
            instances_to_arrays([Instance(x=(1.0,))])

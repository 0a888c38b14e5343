"""Batch decision tree (the J48 analog of §V-D).

A top-down induced binary tree over numeric features with
information-gain or Gini split selection, depth/size pre-pruning, and
quantile-candidate thresholds for speed. Exposes Gini feature
importances (total impurity decrease contributed by each feature,
normalized), which Fig. 5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

INFO_GAIN = "infogain"
GINI = "gini"


def _impurity(counts: np.ndarray, criterion: str) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    if criterion == GINI:
        return float(1.0 - np.sum(p * p))
    nonzero = p[p > 0]
    return float(-np.sum(nonzero * np.log2(nonzero)))


@dataclass
class _TreeNode:
    """One node; leaves carry a class distribution."""

    counts: np.ndarray
    feature: int = -1
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def proba(self) -> np.ndarray:
        total = self.counts.sum()
        if total <= 0:
            return np.full_like(self.counts, 1.0 / len(self.counts))
        return self.counts / total


class BatchDecisionTree:
    """CART/C4.5-style batch decision tree.

    Args:
        n_classes: number of classes.
        criterion: "infogain" or "gini".
        max_depth: depth pre-pruning bound.
        min_samples_split: minimum node size to consider splitting.
        min_samples_leaf: minimum samples each child must keep.
        min_gain: minimum impurity decrease to accept a split.
        max_thresholds: candidate thresholds per feature (quantiles).
        max_features: if set, random feature subset size per node
            (used by the random forest).
        random_state: RNG seed for the feature subsets.
    """

    def __init__(
        self,
        n_classes: int,
        criterion: str = INFO_GAIN,
        max_depth: int = 20,
        min_samples_split: int = 10,
        min_samples_leaf: int = 5,
        min_gain: float = 1e-7,
        max_thresholds: int = 32,
        max_features: Optional[int] = None,
        random_state: Optional[int] = None,
    ) -> None:
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if criterion not in (INFO_GAIN, GINI):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.n_classes = n_classes
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_gain = min_gain
        self.max_thresholds = max_thresholds
        self.max_features = max_features
        self._rng = np.random.RandomState(random_state)
        self._root: Optional[_TreeNode] = None
        self._importances: Optional[np.ndarray] = None
        self.n_features: int = 0
        self.n_nodes = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "BatchDecisionTree":
        """Induce the tree on a dense (n, d) matrix and labels."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if len(X) != len(y):
            raise ValueError("X and y must have equal length")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features = X.shape[1]
        self._importances = np.zeros(self.n_features)
        self.n_nodes = 0
        self._root = self._build(X, y, depth=0)
        total = self._importances.sum()
        if total > 0:
            self._importances /= total
        return self

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes).astype(np.float64)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _TreeNode:
        self.n_nodes += 1
        counts = self._class_counts(y)
        node = _TreeNode(counts=counts)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or np.count_nonzero(counts) < 2
        ):
            return node
        split = self._best_split(X, y, counts)
        if split is None:
            return node
        feature, threshold, gain, mask = split
        assert self._importances is not None
        self._importances[feature] += gain * len(y)
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _candidate_features(self) -> np.ndarray:
        if self.max_features is None or self.max_features >= self.n_features:
            return np.arange(self.n_features)
        return self._rng.choice(
            self.n_features, size=self.max_features, replace=False
        )

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, counts: np.ndarray
    ) -> Optional[Tuple[int, float, float, np.ndarray]]:
        parent_impurity = _impurity(counts, self.criterion)
        total = len(y)
        best: Optional[Tuple[int, float, float, np.ndarray]] = None
        best_gain = self.min_gain
        for feature in self._candidate_features():
            column = X[:, feature]
            thresholds = self._thresholds(column)
            for threshold in thresholds:
                mask = column <= threshold
                n_left = int(mask.sum())
                n_right = total - n_left
                if (
                    n_left < self.min_samples_leaf
                    or n_right < self.min_samples_leaf
                ):
                    continue
                left_counts = self._class_counts(y[mask])
                right_counts = counts - left_counts
                child = (
                    n_left / total * _impurity(left_counts, self.criterion)
                    + n_right / total * _impurity(right_counts, self.criterion)
                )
                gain = parent_impurity - child
                if gain > best_gain:
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain), mask)
        return best

    def _thresholds(self, column: np.ndarray) -> np.ndarray:
        unique = np.unique(column)
        if len(unique) <= 1:
            return np.empty(0)
        midpoints = (unique[:-1] + unique[1:]) / 2.0
        if len(midpoints) <= self.max_thresholds:
            return midpoints
        quantiles = np.linspace(0, 1, self.max_thresholds + 2)[1:-1]
        return np.unique(np.quantile(column, quantiles))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _leaf_for(self, x: np.ndarray) -> _TreeNode:
        if self._root is None:
            raise RuntimeError("fit() must be called before predict()")
        node = self._root
        while not node.is_leaf:
            assert node.left is not None and node.right is not None
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities for a dense (n, d) matrix."""
        X = np.asarray(X, dtype=np.float64)
        return np.vstack([self._leaf_for(row).proba() for row in X])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Class predictions for a dense (n, d) matrix."""
        return np.argmax(self.predict_proba(X), axis=1)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized total impurity decrease per feature."""
        if self._importances is None:
            raise RuntimeError("fit() must be called first")
        return self._importances


def instances_to_arrays(
    instances: Sequence,
) -> Tuple[np.ndarray, np.ndarray]:
    """Convert labeled :class:`repro.streamml.Instance`s to (X, y)."""
    labeled = [inst for inst in instances if inst.y is not None]
    if not labeled:
        raise ValueError("no labeled instances provided")
    X = np.array([inst.x for inst in labeled], dtype=np.float64)
    y = np.array([inst.y for inst in labeled], dtype=np.int64)
    return X, y

"""Sliding-window k-nearest-neighbours streaming classifier.

A simple, strong streaming baseline (MOA's kNN): keep the last
``window_size`` labeled instances and classify by majority vote among
the ``k`` nearest (Euclidean over the normalized feature space).
Forgetting is implicit — old instances fall out of the window — which
gives kNN natural (if slow) drift adaptation.

Complexity is O(window) per prediction, so this model trades throughput
for simplicity; it exists as a baseline and for small-feature problems.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, List, Sequence, Tuple

from repro.streamml.base import StreamClassifier
from repro.streamml.instance import Instance


class KNNClassifier(StreamClassifier):
    """k-NN over a sliding window of recent labeled instances.

    Args:
        n_classes: number of classes.
        k: neighbours consulted per prediction.
        window_size: labeled instances retained.
        weighted: weight votes by inverse distance.
    """

    def __init__(
        self,
        n_classes: int,
        k: int = 11,
        window_size: int = 1000,
        weighted: bool = True,
    ) -> None:
        super().__init__(n_classes)
        if k < 1:
            raise ValueError("k must be >= 1")
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.k = k
        self.window_size = window_size
        self.weighted = weighted
        self._window: Deque[Tuple[Tuple[float, ...], int]] = deque(
            maxlen=window_size
        )

    def learn_one(self, instance: Instance) -> None:
        label = self._check_labeled(instance)
        self.instances_seen += 1
        self._window.append((instance.x, label))

    def _neighbours(
        self, x: Sequence[float]
    ) -> List[Tuple[float, int]]:
        distances = [
            (self._distance(x, stored_x), label)
            for stored_x, label in self._window
        ]
        distances.sort(key=lambda pair: pair[0])
        return distances[: self.k]

    @staticmethod
    def _distance(a: Sequence[float], b: Sequence[float]) -> float:
        return math.sqrt(
            sum((va - vb) * (va - vb) for va, vb in zip(a, b))
        )

    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        if not self._window:
            return tuple(1.0 / self.n_classes for _ in range(self.n_classes))
        votes = [0.0] * self.n_classes
        for distance, label in self._neighbours(x):
            weight = 1.0 / (distance + 1e-9) if self.weighted else 1.0
            votes[label] += weight
        return self._normalize(votes)

    def clone(self) -> "KNNClassifier":
        return KNNClassifier(
            n_classes=self.n_classes,
            k=self.k,
            window_size=self.window_size,
            weighted=self.weighted,
        )

    def merge(self, other: StreamClassifier) -> None:
        """Union of windows, keeping the most recent entries."""
        if not isinstance(other, KNNClassifier):
            raise TypeError(f"cannot merge KNNClassifier with {type(other)}")
        self.instances_seen += other.instances_seen
        for item in other._window:
            self._window.append(item)

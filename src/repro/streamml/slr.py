"""Streaming Logistic Regression trained with stochastic gradient descent.

Implements the paper's SLR: a linear model with a logistic link, updated
online per instance with SGD, supporting no / L1 / L2 regularization
(Table I: lambda = learning rate, regularization = penalty strength).
The multi-class case uses softmax (multinomial logistic regression),
which reduces to standard binary LR when ``n_classes == 2``.

The model is a plain weight matrix, so the distributed merge is the
standard parameter-averaging scheme weighted by instances seen.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.streamml.base import StreamClassifier
from repro.streamml.instance import Instance

REGULARIZER_ZERO = "zero"
REGULARIZER_L1 = "l1"
REGULARIZER_L2 = "l2"
_REGULARIZERS = (REGULARIZER_ZERO, REGULARIZER_L1, REGULARIZER_L2)


class StreamingLogisticRegression(StreamClassifier):
    """Multinomial logistic regression with per-instance SGD updates.

    Args:
        n_classes: number of classes.
        learning_rate: SGD step size ("Lambda" in Table I).
        regularizer: "zero", "l1", or "l2".
        regularization: penalty coefficient.
        decay: if > 0, the effective step at update t is
            ``learning_rate / (1 + decay * t)``; 0 keeps a constant step.
    """

    def __init__(
        self,
        n_classes: int,
        learning_rate: float = 0.1,
        regularizer: str = REGULARIZER_L2,
        regularization: float = 0.01,
        decay: float = 0.0,
    ) -> None:
        super().__init__(n_classes)
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if regularizer not in _REGULARIZERS:
            raise ValueError(
                f"regularizer must be one of {_REGULARIZERS}, got {regularizer!r}"
            )
        if regularization < 0:
            raise ValueError("regularization must be non-negative")
        self.learning_rate = learning_rate
        self.regularizer = regularizer
        self.regularization = regularization
        self.decay = decay
        self._weights: List[List[float]] = []  # [class][feature]
        self._bias: List[float] = [0.0] * n_classes

    def _ensure_weights(self, n_features: int) -> None:
        if not self._weights:
            self._weights = [[0.0] * n_features for _ in range(self.n_classes)]
        elif len(self._weights[0]) != n_features:
            raise ValueError(
                f"expected {len(self._weights[0])} features, got {n_features}"
            )

    def _scores(self, x: Sequence[float]) -> List[float]:
        scores: List[float] = []
        for label in range(self.n_classes):
            score = self._bias[label]
            weights = self._weights[label]
            for w, value in zip(weights, x):
                score += w * value
            scores.append(score)
        return scores

    def _softmax(self, scores: Sequence[float]) -> List[float]:
        max_score = max(scores)
        exps = [math.exp(s - max_score) for s in scores]
        total = sum(exps)
        return [e / total for e in exps]

    def learn_one(self, instance: Instance) -> None:
        label = self._check_labeled(instance)
        self._ensure_weights(instance.n_features)
        self.instances_seen += 1
        step = self.learning_rate
        if self.decay > 0:
            step = self.learning_rate / (1.0 + self.decay * self.instances_seen)
        step *= instance.weight
        probs = self._softmax(self._scores(instance.x))
        for cls in range(self.n_classes):
            error = probs[cls] - (1.0 if cls == label else 0.0)
            weights = self._weights[cls]
            for feature, value in enumerate(instance.x):
                gradient = error * value
                if self.regularizer == REGULARIZER_L2:
                    gradient += self.regularization * weights[feature]
                elif self.regularizer == REGULARIZER_L1:
                    gradient += self.regularization * _sign(weights[feature])
                weights[feature] -= step * gradient
            self._bias[cls] -= step * error

    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        if not self._weights or len(x) != len(self._weights[0]):
            return tuple(1.0 / self.n_classes for _ in range(self.n_classes))
        return tuple(self._softmax(self._scores(x)))

    def learn_many(self, instances: Sequence[Instance]) -> None:
        """Batch SGD kernel: bit-identical to the scalar loop.

        SGD is inherently sequential (each update reads the weights the
        previous one wrote), so this cannot reorder the math — it runs
        the exact per-instance update with the hyperparameters, weight
        rows, and math functions hoisted out of the loop. Every float
        operation happens in the same order as ``learn_one``.
        """
        if not instances:
            return
        n_classes = self.n_classes
        learning_rate = self.learning_rate
        decay = self.decay
        regularization = self.regularization
        l2 = self.regularizer == REGULARIZER_L2
        l1 = self.regularizer == REGULARIZER_L1
        bias = self._bias
        exp = math.exp
        for instance in instances:
            label = self._check_labeled(instance)
            self._ensure_weights(instance.n_features)
            all_weights = self._weights
            self.instances_seen += 1
            step = learning_rate
            if decay > 0:
                step = learning_rate / (1.0 + decay * self.instances_seen)
            step *= instance.weight
            x = instance.x
            # Inline _scores + _softmax (same op order).
            scores = []
            for cls in range(n_classes):
                score = bias[cls]
                for w, value in zip(all_weights[cls], x):
                    score += w * value
                scores.append(score)
            max_score = max(scores)
            exps = [exp(s - max_score) for s in scores]
            total = sum(exps)
            for cls in range(n_classes):
                error = exps[cls] / total - (1.0 if cls == label else 0.0)
                weights = all_weights[cls]
                for feature, value in enumerate(x):
                    gradient = error * value
                    if l2:
                        gradient += regularization * weights[feature]
                    elif l1:
                        gradient += regularization * _sign(weights[feature])
                    weights[feature] -= step * gradient
                bias[cls] -= step * error

    def predict_proba_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        """Batch prediction kernel: bit-identical per row to the scalar
        path, with the weight matrix and softmax hoisted out of the
        per-row dispatch."""
        all_weights = self._weights
        n_classes = self.n_classes
        if not all_weights:
            uniform = tuple(1.0 / n_classes for _ in range(n_classes))
            return [uniform for _ in xs]
        n_features = len(all_weights[0])
        bias = self._bias
        exp = math.exp
        uniform = tuple(1.0 / n_classes for _ in range(n_classes))
        out: List[Tuple[float, ...]] = []
        for x in xs:
            if len(x) != n_features:
                out.append(uniform)
                continue
            scores = []
            for cls in range(n_classes):
                score = bias[cls]
                for w, value in zip(all_weights[cls], x):
                    score += w * value
                scores.append(score)
            max_score = max(scores)
            exps = [exp(s - max_score) for s in scores]
            total = sum(exps)
            out.append(tuple(e / total for e in exps))
        return out

    def clone(self) -> "StreamingLogisticRegression":
        return StreamingLogisticRegression(
            n_classes=self.n_classes,
            learning_rate=self.learning_rate,
            regularizer=self.regularizer,
            regularization=self.regularization,
            decay=self.decay,
        )

    def merge(self, other: StreamClassifier) -> None:
        """Average parameters, weighted by instances seen on each side."""
        if not isinstance(other, StreamingLogisticRegression):
            raise TypeError(
                f"cannot merge StreamingLogisticRegression with {type(other)}"
            )
        if other.instances_seen == 0:
            return
        if self.instances_seen == 0 or not self._weights:
            self._weights = [list(row) for row in other._weights]
            self._bias = list(other._bias)
            self.instances_seen = other.instances_seen
            return
        total = float(self.instances_seen + other.instances_seen)
        mine = self.instances_seen / total
        theirs = other.instances_seen / total
        for cls in range(self.n_classes):
            my_row = self._weights[cls]
            their_row = other._weights[cls]
            for feature in range(len(my_row)):
                my_row[feature] = (
                    mine * my_row[feature] + theirs * their_row[feature]
                )
            self._bias[cls] = mine * self._bias[cls] + theirs * other._bias[cls]
        self.instances_seen = int(total)

    @property
    def weights(self) -> List[List[float]]:
        """Current weight matrix (read-only view by convention)."""
        return self._weights

    @property
    def bias(self) -> List[float]:
        """Current per-class bias terms."""
        return self._bias


def _sign(value: float) -> float:
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0

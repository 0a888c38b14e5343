"""Common interface for streaming classifiers.

Every streaming model in this package learns one instance at a time
(``learn_one``), predicts class probabilities (``predict_proba_one``),
does both for one labelled row of a prequential stream
(``test_then_train``), and supports the two operations the distributed
engine needs:

* ``clone()`` — a fresh, untrained model with the same hyperparameters,
  used to spin up per-partition local models; and
* ``merge(other)`` — fold another model trained on a disjoint partition
  into this one, producing the global model of Fig. 2.

Merging two arbitrary incremental models exactly is impossible in
general; each classifier documents its merge semantics (e.g. SLR
averages weight vectors, ARF merges tree statistics per member).
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

from repro.streamml.instance import Instance


def argmax(proba: Sequence[float]) -> int:
    """Index of the most probable class; a tie goes to the first."""
    return proba.index(max(proba))


class StreamClassifier(abc.ABC):
    """Abstract incremental classifier over dense numeric instances."""

    #: Whether ``predict_proba_many`` wants a float64 matrix (it accepts
    #: row sequences either way; a caller holding both passes the matrix
    #: to save the conversion) — ``Normalizer.columnar``'s convention.
    columnar = False

    def __init__(self, n_classes: int) -> None:
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = n_classes
        self.instances_seen = 0

    @abc.abstractmethod
    def learn_one(self, instance: Instance) -> None:
        """Update the model with a single labeled instance."""

    @abc.abstractmethod
    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Return a probability per class (sums to 1)."""

    def test_then_train(self, instance: Instance) -> Tuple[float, ...]:
        """Predict a labelled row, then learn it; return the prediction.

        The prequential step ("test-then-train"): the probabilities are
        the ones :meth:`predict_proba_one` gives before the row is
        learned. The default is exactly those two calls; an override
        shares work between them (the Hoeffding tree sorts the row to
        its leaf once) and MUST leave the same probabilities and the
        same state, bit for bit.
        """
        proba = self.predict_proba_one(instance.x)
        self.learn_one(instance)
        return proba

    def predict_one(self, x: Sequence[float]) -> int:
        """Return the most probable class index."""
        return argmax(self.predict_proba_one(x))

    @abc.abstractmethod
    def clone(self) -> "StreamClassifier":
        """Return a fresh untrained copy with the same hyperparameters."""

    @abc.abstractmethod
    def merge(self, other: "StreamClassifier") -> None:
        """Fold a model trained on a disjoint data partition into this one."""

    def learn_many(self, instances: Sequence[Instance]) -> None:
        """Learn a batch of instances in row order.

        The default is the scalar loop, which is the semantic contract:
        an override MUST be bit-identical to calling :meth:`learn_one`
        row by row (same weights, same state, same float-op order) —
        the batch kernels exist for constant-factor speed only, never
        for different math. See docs/extending.md for how a classifier
        opts into a vectorized implementation.
        """
        for instance in instances:
            self.learn_one(instance)

    def predict_proba_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        """Predict a batch of rows; one probability tuple per row.

        Same contract as :meth:`learn_many`: overrides must match the
        scalar :meth:`predict_proba_one` bit-exactly per row.
        """
        predict = self.predict_proba_one
        return [predict(x) for x in xs]

    def _check_labeled(self, instance: Instance) -> int:
        """Validate an instance for training and return its label."""
        if instance.y is None:
            raise ValueError("cannot train on an unlabeled instance")
        if not 0 <= instance.y < self.n_classes:
            raise ValueError(
                f"label {instance.y} out of range for {self.n_classes} classes"
            )
        return instance.y

    @staticmethod
    def _normalize(votes: Sequence[float]) -> Tuple[float, ...]:
        """Normalize a non-negative vote vector into probabilities."""
        total = float(sum(votes))
        if total <= 0:
            n = len(votes)
            return tuple(1.0 / n for _ in range(n))
        return tuple([v / total for v in votes])

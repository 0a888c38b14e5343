"""Feature instances flowing through the streaming pipeline.

An :class:`Instance` is the unit of work after feature extraction: a dense
numeric feature vector, an optional integer class label (``None`` for the
unlabeled stream), a sample weight (used by online bagging), and the
timestamp of the originating tweet.

:class:`InstanceBlock` is the columnar companion: one block's feature
rows with labels, timestamps and tweet ids as side arrays,
feeding the ``*_many`` batch kernels (``Normalizer.observe_many``,
``StreamClassifier.predict_proba_many``) without materializing per-row
objects until a caller asks for them; :class:`ClassifiedBlock` is the
same for classified unlabeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np


def as_matrix(xs: Sequence[Sequence[float]]) -> Optional[np.ndarray]:
    """``xs`` as a non-empty 2-D float64 matrix, or ``None`` when it is
    empty, ragged or not numeric (the scalar kernels then take the rows
    and raise the usual per-row errors)."""
    try:
        matrix = np.asarray(xs, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return matrix if matrix.ndim == 2 and len(matrix) else None


@dataclass
class Instance:
    """A single (x, y) example in the stream.

    Attributes:
        x: dense feature vector.
        y: integer class label, or ``None`` if unlabeled.
        weight: sample weight (defaults to 1.0).
        timestamp: seconds since epoch of the originating tweet (0 if unknown).
        tweet_id: identifier of the originating tweet, for alerting/sampling.
    """

    x: Tuple[float, ...]
    y: Optional[int] = None
    weight: float = 1.0
    timestamp: float = 0.0
    tweet_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.x, tuple):
            self.x = tuple(float(v) for v in self.x)
        if self.weight < 0:
            raise ValueError(f"weight must be non-negative, got {self.weight}")

    @property
    def is_labeled(self) -> bool:
        """Whether this instance carries a ground-truth label."""
        return self.y is not None

    @property
    def n_features(self) -> int:
        """Number of features in the vector."""
        return len(self.x)

    def with_weight(self, weight: float) -> "Instance":
        """Return a copy of this instance with sample weight ``weight``."""
        return Instance(self.x, self.y, weight, self.timestamp, self.tweet_id)

    def with_features(self, x: Sequence[float]) -> "Instance":
        """Return a copy of this instance with a replaced feature vector.

        An ``x`` that is already a tuple (the normalizers return tuples
        of floats) is adopted as-is — re-tupling every vector was
        measurable allocation churn in the per-tweet loop.
        """
        return Instance(x, self.y, self.weight, self.timestamp, self.tweet_id)


@dataclass
class ClassifiedInstance:
    """An instance together with the model's prediction for it.

    Produced by the prediction stage and consumed by alerting, sampling,
    and evaluation (Fig. 1 / Fig. 2 "classified instances" RDD).
    """

    instance: Instance
    predicted: int
    proba: Tuple[float, ...] = field(default_factory=tuple)

    @property
    def confidence(self) -> float:
        """Probability assigned to the predicted class (0 if unavailable)."""
        if not self.proba:
            return 0.0
        return self.proba[self.predicted]


class InstanceBlock:
    """Columnar batch of instances: feature rows plus side arrays.

    One block carries the feature rows of a run of tweets with their
    labels, timestamps, tweet ids and user ids as parallel lists
    (every row has weight 1.0, as extracted instances do); the rows
    become one float64
    matrix (:meth:`matrix`) for the columnar kernels, and a caller that
    needs per-row :class:`Instance` objects builds them from the
    columns. Row order is preserved everywhere; the batch paths are
    required (and property-tested) to be bit-identical to calling the
    scalar path row by row.
    """

    __slots__ = (
        "xs", "ys", "timestamps", "tweet_ids", "user_ids", "failure",
        "_matrix",
    )

    def __init__(
        self,
        xs: List[Tuple[float, ...]],
        ys: List[Optional[int]],
        timestamps: List[float],
        tweet_ids: List[Optional[str]],
        user_ids: Optional[List[Optional[str]]] = None,
    ) -> None:
        self.xs = xs
        self.ys = ys
        self.timestamps = timestamps
        self.tweet_ids = tweet_ids
        self.user_ids = user_ids
        #: Set by ``FeatureExtractor.extract_many`` when a row failed:
        #: ``(stage, exception, tweet_id)`` for the tweet after the
        #: block's last.
        self.failure: Optional[Tuple[str, Exception, Optional[str]]] = None
        self._matrix = None

    def matrix(self):
        """Columnar float64 matrix of the feature rows, built lazily.

        Shape is ``(len(block), n_features)``. The columnar kernels
        consume this layout directly; it is cached so normalization and
        prediction share one conversion. ``None`` for an empty or ragged
        block (see :func:`as_matrix`).
        """
        if self._matrix is None:
            self._matrix = as_matrix(self.xs)
        return self._matrix

    def rows_for(self, columnar: bool) -> Sequence[Sequence[float]]:
        """The rows in the layout a kernel wants: the matrix for a
        ``columnar`` one (unless the block has none), else the tuples."""
        if columnar:
            matrix = self.matrix()
            if matrix is not None:
                return matrix
        return self.xs

    def __len__(self) -> int:
        return len(self.xs)


class ClassifiedBlock:
    """Columnar batch of classified unlabeled instances.

    Normalized feature rows and class probabilities as two float64
    matrices, predicted class, timestamp and tweet id as side sequences
    (every row unlabeled, weight 1.0). A micro-batch partition ships its
    unlabeled rows back this way — two buffers and three flat sequences
    pickle in a tenth of the time per-row object graphs take — and the
    driver builds a row's :class:`ClassifiedInstance` (:meth:`classified`)
    only where it keeps one.
    """

    __slots__ = ("xs", "probas", "predicted", "timestamps", "tweet_ids")

    def __init__(
        self,
        xs: Sequence[Sequence[float]],
        probas: Sequence[Sequence[float]],
        predicted: Sequence[int],
        timestamps: Sequence[float],
        tweet_ids: Sequence[Optional[str]],
    ) -> None:
        self.xs = np.asarray(xs, dtype=np.float64)
        self.probas = np.asarray(probas, dtype=np.float64)
        self.predicted = predicted
        self.timestamps = timestamps
        self.tweet_ids = tweet_ids

    def classified(self, row: int) -> ClassifiedInstance:
        """Row ``row`` as the instance it was collected from (``==``:
        float64 holds a Python float exactly; vectors come back as
        tuples of floats)."""
        return ClassifiedInstance(
            Instance(
                tuple(self.xs[row].tolist()), None, 1.0,
                self.timestamps[row], self.tweet_ids[row],
            ),
            self.predicted[row],
            tuple(self.probas[row].tolist()),
        )

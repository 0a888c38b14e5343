"""Gaussian naive Bayes: the flat statistics table, its vote kernel, and
the standalone streaming classifier.

A Hoeffding-tree leaf and :class:`GaussianNaiveBayes` keep the same
sufficient statistics — per class a weight and a running mean / m2 per
feature — and vote with the same function, so both own one
:class:`GaussianTable`. The table is the *only* Gaussian naive Bayes in
``src/``: the tree's "naive Bayes adaptive" leaves, the standalone
classifier and the partition batch kernel all evaluate
:meth:`GaussianTable.votes` / :meth:`GaussianTable.votes_many`.
DESIGN.md §9 "Classifier kernel" has the layout and the contracts.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.streamml.base import StreamClassifier
from repro.streamml.instance import Instance

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MIN_STD = 1e-6
#: A per-feature density never contributes less than this to a vote.
_LOG_FLOOR = math.log(1e-300)

#: One class's derived lists: ``(mean, 1/σ, −log(σ·√2π))`` per feature,
#: or ``()`` for a class the table has not seen.
_Derived = Tuple[Tuple[float, ...], ...]


def gaussian_pdf(value: float, mean: float, std: float) -> float:
    """Gaussian density with a variance floor for numeric stability.

    The formula the vote kernel evaluates in log space; kept as the
    tests' reference.
    """
    std = max(std, _MIN_STD)
    z = (value - mean) / std
    return math.exp(-0.5 * z * z) / (std * _SQRT_2PI)


class GaussianTable:
    """Per-class Gaussian sufficient statistics over the features, flat.

    ``weights[c]`` is the weight class ``c`` has been observed with;
    ``means[c][f]`` / ``m2s[c][f]`` are Welford's running mean and sum
    of squared deviations, updated and merged with
    :class:`~repro.streamml.stats.RunningStats`'s IEEE operations in the
    same order (so the statistics are ``==`` what one ``RunningStats``
    per (feature, class) would hold); ``lo`` / ``hi`` / ``n_ranged``
    are the per-feature value ranges split evaluation scans
    (:class:`~repro.streamml.stats.RunningMinMax`, one shared count).

    The lists a vote reads — mean, ``1/σ`` and ``−log(σ·√2π)`` — are
    derived lazily per class, as one immutable tuple published with one
    store (sibling partitions read a broadcast tree concurrently; a lost
    race rebuilds an identical tuple), dropped for the learned class by
    :meth:`update`, for every class by :meth:`merge`, and never pickled.
    """

    __slots__ = (
        "n_features", "weights", "means", "m2s", "n_ranged", "lo", "hi",
        "_derived",
    )

    def __init__(self, n_classes: int, n_features: int) -> None:
        self.n_features = n_features
        self.weights: List[float] = [0.0] * n_classes
        self.means = [[0.0] * n_features for _ in range(n_classes)]
        self.m2s = [[0.0] * n_features for _ in range(n_classes)]
        self.n_ranged = 0
        self.lo: List[float] = [math.inf] * n_features
        self.hi: List[float] = [-math.inf] * n_features
        self._derived: List[Optional[_Derived]] = [None] * n_classes

    def __getstate__(self) -> Tuple[object, ...]:
        return (
            self.n_features, self.weights, self.means, self.m2s,
            self.n_ranged, self.lo, self.hi,
        )

    def __setstate__(self, state: Tuple[object, ...]) -> None:
        (
            self.n_features, self.weights, self.means, self.m2s,
            self.n_ranged, self.lo, self.hi,
        ) = state
        self._derived = [None] * len(self.weights)

    # -- statistics ----------------------------------------------------

    def update(self, x: Sequence[float], label: int, weight: float) -> None:
        """Fold one row of class ``label`` (``len(x) == n_features``)."""
        lo = self.lo
        hi = self.hi
        self.n_ranged += 1
        if weight <= 0:  # no statistics, but the ranges still see the row
            self.lo = [v if v < a else a for a, v in zip(lo, x)]
            self.hi = [v if v > a else a for a, v in zip(hi, x)]
            return
        count = self.weights[label] + weight
        self.weights[label] = count
        ratio = weight / count
        means = self.means[label]
        m2s = self.m2s[label]
        for f, value in enumerate(x):
            mean = means[f]
            delta = value - mean
            mean += ratio * delta
            means[f] = mean
            m2s[f] += weight * delta * (value - mean)
            if value < lo[f]:
                lo[f] = value
            if value > hi[f]:
                hi[f] = value
        self._derived[label] = None

    def merge(self, other: "GaussianTable") -> None:
        """Fold a table built on a disjoint partition into this one
        (Chan et al.'s parallel combination, per class and feature)."""
        for label, other_count in enumerate(other.weights):
            count = self.weights[label]
            total = count + other_count
            if total == 0:  # unseen on both sides: the zeros stay
                continue
            means = self.means[label]
            m2s = self.m2s[label]
            share = other_count / total
            for f, (other_mean, other_m2) in enumerate(
                zip(other.means[label], other.m2s[label])
            ):
                delta = other_mean - means[f]
                m2s[f] = (
                    m2s[f] + other_m2 + delta * delta * count * other_count / total
                )
                means[f] = means[f] + delta * share
            self.weights[label] = total
        self.n_ranged += other.n_ranged
        self.lo = [b if b < a else a for a, b in zip(self.lo, other.lo)]
        self.hi = [b if b > a else a for a, b in zip(self.hi, other.hi)]
        self._derived = [None] * len(self.weights)

    def std(self, label: int, feature: int) -> float:
        """Population standard deviation of one (class, feature) cell."""
        count = self.weights[label]
        if count <= 1:
            return 0.0
        return math.sqrt(max(self.m2s[label][feature] / count, 0.0))

    # -- votes ---------------------------------------------------------

    def _derive(self, label: int) -> _Derived:
        count = self.weights[label]
        derived: _Derived = ()
        if count > 0:
            stds = [_MIN_STD] * self.n_features
            if count > 1:
                sqrt = math.sqrt
                for f, m2 in enumerate(self.m2s[label]):
                    variance = m2 / count
                    if variance < 0.0:
                        variance = 0.0
                    std = sqrt(variance)
                    if not std < _MIN_STD:  # a NaN stays a NaN
                        stds[f] = std
            log = math.log
            derived = (
                tuple(self.means[label]),
                tuple([1.0 / std for std in stds]),
                tuple([-log(std * _SQRT_2PI) for std in stds]),
            )
        self._derived[label] = derived
        return derived

    def votes(
        self, x: Sequence[float], class_counts: Sequence[float], total: float
    ) -> List[float]:
        """Unnormalised naive-Bayes votes for one row (largest is 1.0).

        ``log prior + Σ_f max(log N(x_f; mean, σ), log 1e-300)`` per
        class, accumulated in feature order; a class the table has not
        seen votes with its prior alone. The caller guarantees
        ``total > 0`` and ``len(x) == n_features`` (an empty ``x`` votes
        with the priors).
        """
        log = math.log
        floor = _LOG_FLOOR
        denominator = total + len(class_counts)
        log_scores: List[float] = []
        for label, derived in enumerate(self._derived):
            if derived is None:
                derived = self._derive(label)
            score = log((class_counts[label] + 1.0) / denominator)
            if derived:
                for value, mean, inverse, log_norm in zip(x, *derived):
                    z = (value - mean) * inverse
                    term = log_norm - 0.5 * (z * z)
                    score += term if term > floor else floor
            log_scores.append(score)
        top = max(log_scores)
        exp = math.exp
        return [exp(score - top) for score in log_scores]

    def votes_many(
        self,
        columns: np.ndarray,
        class_counts: Sequence[float],
        total: float,
        work: np.ndarray,
    ) -> List[List[float]]:
        """:meth:`votes` for every row of a block, ``==`` row for row.

        ``columns`` is the block transposed, ``(n_features, m)``, and
        ``work`` the caller's ``(n_classes, n_features + 1, ≥ m)``
        scratch buffer. Same IEEE operations per (row, class, feature)
        as the scalar loop, a sequential ``add.accumulate`` over
        ``[log prior, term_0, term_1, …]`` — not ``sum(axis=…)``, which
        reduces pairwise — and ``math.exp`` for the votes: numpy's
        ``exp`` need not round like libm's.
        """
        n_classes = len(class_counts)
        denominator = total + n_classes
        derived = [
            d if d is not None else self._derive(label)
            for label, d in enumerate(self._derived)
        ]
        blank = ((0.0,) * self.n_features,) * 3
        means, inverses, log_norms = np.array(
            [[(d or blank)[part] for d in derived] for part in range(3)]
        )[:, :, :, None]
        scores = work[:, :, : columns.shape[1]]
        scores[:, 0, :] = [
            [math.log((count + 1.0) / denominator)] for count in class_counts
        ]
        terms = scores[:, 1:, :]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(columns, means, out=terms)
            np.multiply(terms, inverses, out=terms)
            np.multiply(terms, terms, out=terms)
            np.multiply(terms, 0.5, out=terms)
            np.subtract(log_norms, terms, out=terms)
            np.fmax(terms, _LOG_FLOOR, out=terms)
        for label, d in enumerate(derived):
            if not d:
                terms[label] = 0.0
        np.add.accumulate(scores, axis=1, out=scores)
        log_scores = scores[:, -1, :]
        flat = list(
            map(math.exp, (log_scores - log_scores.max(axis=0)).T.ravel().tolist())
        )
        return [
            flat[start : start + n_classes]
            for start in range(0, len(flat), n_classes)
        ]


class GaussianNaiveBayes(StreamClassifier):
    """Streaming Gaussian naive Bayes over dense numeric features."""

    def __init__(self, n_classes: int) -> None:
        super().__init__(n_classes)
        self.class_counts: List[float] = [0.0] * n_classes
        self._table: Optional[GaussianTable] = None

    def learn_one(self, instance: Instance) -> None:
        label = self._check_labeled(instance)
        if self._table is None:
            self._table = GaussianTable(self.n_classes, instance.n_features)
        elif self._table.n_features != instance.n_features:
            raise ValueError(
                f"expected {self._table.n_features} features, "
                f"got {instance.n_features}"
            )
        self.class_counts[label] += instance.weight
        self.instances_seen += 1
        self._table.update(instance.x, label, instance.weight)

    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        total = sum(self.class_counts)
        if total == 0:
            return self._normalize([1.0] * self.n_classes)
        table = self._table or GaussianTable(self.n_classes, 0)
        if len(x) != table.n_features:
            x = ()  # wrong width: the priors alone
        return self._normalize(table.votes(x, self.class_counts, total))

    def clone(self) -> "GaussianNaiveBayes":
        return GaussianNaiveBayes(self.n_classes)

    def merge(self, other: StreamClassifier) -> None:
        if not isinstance(other, GaussianNaiveBayes):
            raise TypeError(f"cannot merge GaussianNaiveBayes with {type(other)}")
        if other.n_classes != self.n_classes:
            raise ValueError("class-count mismatch in merge")
        self.instances_seen += other.instances_seen
        self.class_counts = [
            a + b for a, b in zip(self.class_counts, other.class_counts)
        ]
        if self._table is None:
            self._table = other._table
        elif other._table is not None:
            self._table.merge(other._table)

"""Feature normalization (Fig. 1, step 3; §III-A).

Three incremental normalizers, matching the paper:

* :class:`MinMaxNormalizer` — scales each feature into [0, 1] using the
  running min/max;
* :class:`MinMaxNoOutliersNormalizer` — same, but the bounds are robust
  quantile estimates from a block-quantile sketch (one sort per
  :data:`BLOCK_ROWS` rows, block quantiles folded by a count-weighted
  mean), so statistical outliers do not stretch the range (§V-B finds
  this variant ~2% better);
* :class:`ZScoreNormalizer` — zero mean, unit standard deviation using
  running moments.

All statistics are computed incrementally during stream processing
(observe-then-transform), and support merging across partitions: the
micro-batch engine hands each partition a ``fresh()`` empty normalizer,
the partition observes its own raw vectors locally, and the driver folds
the small per-partition statistics into the global normalizer with
``merge()`` — O(partitions) driver work instead of O(tweets).

Every normalizer has one kernel per operation. For min-max, z-score
and identity the ``*_many`` methods are scalar loops that strip per-row
dispatch and are bit-identical to the per-row path (the property suite
compares with ``==``); the no-outliers variant's are numpy, cut at the
same block boundaries as its row path, and just as ``==``.

The no-outliers contract (DESIGN.md §9) is: row path ``==`` batch path
under any chunking, runner ``==`` runner, resume ``==`` uninterrupted —
all bit for bit — while the bounds themselves are an estimate pinned only by
accuracy (within 10% of the true 5%/95% span on stationary streams, the
Fig. 7/8 benches and the F1 band).
"""

from __future__ import annotations

import abc
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.streamml.instance import Instance
from repro.streamml.stats import RunningMinMax, RunningStats

MINMAX = "minmax"
MINMAX_NO_OUTLIERS = "minmax_no_outliers"
ZSCORE = "zscore"
KINDS = (MINMAX, MINMAX_NO_OUTLIERS, ZSCORE)

#: Rows per block of the no-outliers quantile sketch. A constant of the
#: estimator, not a knob: every caller must cut blocks at the same row
#: counts for the row and batch paths to agree bit for bit.
BLOCK_ROWS = 256


def _as_matrix(xs: Sequence[Sequence[float]], n_features: int):
    """Batch rows as a float64 matrix, or ``None`` to use the row path.

    ``None`` (empty batch, ragged rows, or width mismatch) sends the
    caller down the per-row loop, which raises the usual per-row errors
    — the matrix path never changes error behaviour.
    """
    if len(xs) == 0:
        return None
    if isinstance(xs, _np.ndarray):
        matrix = xs
    else:
        try:
            matrix = _np.asarray(xs, dtype=_np.float64)
        except (TypeError, ValueError):
            return None
    if matrix.ndim != 2 or matrix.shape[1] != n_features:
        return None
    return matrix


def _scale_clip(X, los, spans, valid):
    """Min-max scale ``X`` into [0, 1] wherever ``valid``; 0 elsewhere.

    ``los``/``spans``/``valid`` are per-column vectors broadcast against
    ``X``. Returns ``(scaled matrix, clipped count)`` with the clip
    count matching the row path (one per out-of-range value in a valid
    cell).
    """
    with _np.errstate(divide="ignore", invalid="ignore"):
        scaled = (X - los) / spans
    mask = _np.broadcast_to(valid, scaled.shape)
    n_clipped = int((((scaled < 0.0) | (scaled > 1.0)) & mask).sum())
    with _np.errstate(invalid="ignore"):
        _np.clip(scaled, 0.0, 1.0, out=scaled)
    return _np.where(mask, scaled, 0.0), n_clipped


def _rows_as_tuples(matrix) -> List[Tuple[float, ...]]:
    return [tuple(row) for row in matrix.tolist()]


class Normalizer(abc.ABC):
    """Incremental per-feature scaler."""

    #: Whether the ``*_many`` kernels want a float64 matrix (they accept
    #: row sequences either way; a caller holding both passes the matrix
    #: to save the per-call conversion).
    columnar = False

    def __init__(self, n_features: int) -> None:
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_features = n_features
        self.observed = 0
        #: Feature values run through :meth:`transform` so far.
        self.n_transformed = 0
        #: Transformed values that fell outside the scaling bounds and
        #: were clamped (min-max variants only; 0 for z-score/identity).
        self.n_clipped = 0

    @property
    def clip_ratio(self) -> float:
        """Fraction of transformed feature values that were clamped."""
        if self.n_transformed == 0:
            return 0.0
        return self.n_clipped / self.n_transformed

    def _check(self, x: Sequence[float]) -> None:
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {len(x)}")

    @abc.abstractmethod
    def observe(self, x: Sequence[float]) -> None:
        """Fold one raw feature vector into the statistics."""

    @abc.abstractmethod
    def transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Scale one raw feature vector with the current statistics."""

    def observe_and_transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        """Observe then transform (the streaming usage pattern)."""
        self.observe(x)
        return self.transform(x)

    def transform_instance(self, instance: Instance) -> Instance:
        """Observe and transform an instance, preserving its metadata."""
        return instance.with_features(self.observe_and_transform(instance.x))

    # -- batch kernels -------------------------------------------------
    # The *_many defaults are the semantic contract: overrides must be
    # bit-identical to running the scalar path row by row (same
    # statistics, same clip counts, same outputs). They exist to strip
    # per-row method dispatch from the per-batch loops, never to change
    # the math — the property suite compares both paths element-wise.

    def observe_many(self, xs: Sequence[Sequence[float]]) -> None:
        """Fold a batch of raw feature vectors into the statistics."""
        for x in xs:
            self.observe(x)

    def observe_and_transform_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        """Self-inclusive batch scaling: row i is transformed with
        statistics that already include rows 0..i (matching the scalar
        observe-then-transform stream order)."""
        return [self.observe_and_transform(x) for x in xs]

    def _merge_counts(self, other: "Normalizer") -> None:
        self.observed += other.observed
        self.n_transformed += other.n_transformed
        self.n_clipped += other.n_clipped

    @abc.abstractmethod
    def merge(self, other: "Normalizer") -> None:
        """Fold another partition's statistics into this normalizer."""

    def fresh(self) -> "Normalizer":
        """A new, empty normalizer with this one's configuration.

        Partition tasks use this to accumulate partition-local statistics
        that the driver later folds back via :meth:`merge`.
        """
        return type(self)(self.n_features)


class MinMaxNormalizer(Normalizer):
    """Scale to [0, 1] with the running min/max of each feature."""

    def __init__(self, n_features: int) -> None:
        super().__init__(n_features)
        self._trackers: List[RunningMinMax] = [
            RunningMinMax() for _ in range(n_features)
        ]

    def observe(self, x: Sequence[float]) -> None:
        self._check(x)
        self.observed += 1
        for tracker, value in zip(self._trackers, x):
            tracker.update(value)

    def transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        self._check(x)
        self.n_transformed += len(x)
        result = []
        for tracker, value in zip(self._trackers, x):
            span = tracker.range
            if tracker.count == 0 or span <= 0:
                result.append(0.0)
            else:
                scaled = (value - tracker.min) / span
                if scaled < 0.0 or scaled > 1.0:
                    self.n_clipped += 1
                result.append(min(max(scaled, 0.0), 1.0))
        return tuple(result)

    def merge(self, other: Normalizer) -> None:
        if not isinstance(other, MinMaxNormalizer):
            raise TypeError(f"cannot merge MinMaxNormalizer with {type(other)}")
        self._merge_counts(other)
        self._trackers = [
            mine.merge(theirs)
            for mine, theirs in zip(self._trackers, other._trackers)
        ]

    def observe_many(self, xs: Sequence[Sequence[float]]) -> None:
        trackers = self._trackers
        for x in xs:
            self._check(x)
            self.observed += 1
            for tracker, value in zip(trackers, x):
                tracker.count += 1
                if value < tracker.min:
                    tracker.min = value
                if value > tracker.max:
                    tracker.max = value

    def observe_and_transform_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        # Self-inclusive: each row updates the trackers before it is
        # scaled, exactly like the scalar stream order — but observe and
        # transform share one walk per row (feature f's bounds depend
        # only on feature f's tracker, so fusing the walks is exact).
        trackers = self._trackers
        out: List[Tuple[float, ...]] = []
        n_clipped = 0
        for x in xs:
            self._check(x)
            self.observed += 1
            self.n_transformed += len(x)
            row = []
            for tracker, value in zip(trackers, x):
                tracker.count += 1
                lo = tracker.min
                hi = tracker.max
                if value < lo:
                    tracker.min = lo = value
                if value > hi:
                    tracker.max = hi = value
                span = hi - lo
                if span <= 0:
                    row.append(0.0)
                else:
                    scaled = (value - lo) / span
                    if scaled < 0.0:
                        n_clipped += 1
                        scaled = 0.0
                    elif scaled > 1.0:
                        n_clipped += 1
                        scaled = 1.0
                    row.append(scaled)
            out.append(tuple(row))
        self.n_clipped += n_clipped
        return out


def _sorted_columns(rows):
    """``rows`` as a float64 matrix with each column sorted."""
    return _np.sort(_np.asarray(rows, dtype=_np.float64), axis=0)


def _column_quantiles(ordered, quantile: float):
    """Per-column quantile of a column-sorted matrix.

    Linear interpolation between the two bracketing order statistics
    (``numpy.quantile``'s default), so a one-row block yields the row
    and small cold-start buffers are not biased toward either tail.
    """
    position = quantile * (len(ordered) - 1)
    index = int(position)
    if index + 1 == len(ordered):
        return ordered[index]
    below = ordered[index]
    return below + (position - index) * (ordered[index + 1] - below)


class MinMaxNoOutliersNormalizer(Normalizer):
    """Min-max over robust quantile bounds instead of the raw extremes.

    Bounds default to the 5th/95th percentile, estimated with a
    block-quantile sketch; values beyond the bounds clip to 0/1.

    ``observe`` appends the row to a pending buffer. Every
    :data:`BLOCK_ROWS` rows the buffer is sorted once per feature and
    the block's quantiles are folded into the running estimates by a
    count-weighted mean; ``transform`` scales against the ``(lo,
    span)`` pairs cached at the last fold. Two cases differ from that
    steady state:

    * cold start — until anything has been folded or merged in, the
      bounds are the exact quantiles of the pending rows, recomputed
      per row from a column-sorted copy each row is inserted into (no
      re-sort per row), so the first tweets are not scaled to zeros;
    * degenerate span — a feature whose quantile span is not positive
      (a count that is zero for >95% of tweets) scales against the
      tracked min/max instead, so it survives as an indicator.

    The row path and the ``*_many`` kernels cut blocks at the same row
    counts and run the same IEEE operations per value, so they are
    ``==``-identical for any chunking of the stream.
    """

    columnar = True

    def __init__(
        self,
        n_features: int,
        lower_quantile: float = 0.05,
        upper_quantile: float = 0.95,
    ) -> None:
        super().__init__(n_features)
        if not 0.0 < lower_quantile < upper_quantile < 1.0:
            raise ValueError("need 0 < lower_quantile < upper_quantile < 1")
        self.lower_quantile = lower_quantile
        self.upper_quantile = upper_quantile
        #: Rows summarised by the running estimates below (folded
        #: blocks plus everything merged in); 0 means cold start.
        self._folded = 0
        self._lo = _np.zeros(n_features)
        self._hi = _np.zeros(n_features)
        self._min = _np.full(n_features, _np.inf)
        self._max = _np.full(n_features, -_np.inf)
        #: Observed rows not yet folded (always < BLOCK_ROWS of them).
        self._pending: List[Tuple[float, ...]] = []
        #: Cold start only: ``_pending`` column-sorted (_cold_sorted).
        self._cold = None
        # Cached scaling bounds in both layouts: per-feature ``(lo,
        # span)`` or None for the row path, ``(los, spans, valid)``
        # arrays for the batch path. ``_pairs is None`` marks both
        # stale; whatever changes the bounds resets it.
        self._pairs: Optional[List[Optional[Tuple[float, float]]]] = None
        self._arrays: Tuple[Any, Any, Any] = (None, None, None)

    # -- sketch --------------------------------------------------------

    def _fold(self, count: int, lo, hi, low, high) -> None:
        """Fold a ``count``-row summary into the running estimates."""
        self._folded += count
        weight = count / self._folded  # 1.0 into an empty sketch: exact copy
        self._lo += weight * (lo - self._lo)
        self._hi += weight * (hi - self._hi)
        self._min = _np.minimum(self._min, low)
        self._max = _np.maximum(self._max, high)
        self._pairs = None

    def _summary(self, ordered):
        """``(lo, hi, min, max)`` per feature of a column-sorted block."""
        return (
            _column_quantiles(ordered, self.lower_quantile),
            _column_quantiles(ordered, self.upper_quantile),
            ordered[0],
            ordered[-1],
        )

    def _fold_block(self, rows) -> None:
        self._fold(len(rows), *self._summary(_sorted_columns(rows)))

    def _fold_pending(self) -> None:
        self._fold_block(self._pending)
        self._pending.clear()
        self._cold = None

    def _cold_sorted(self):
        """The pending rows, column-sorted, kept across cold-start rows.

        One row observed since the last call is inserted per column at
        its ``searchsorted`` position; anything else (a bulk observe, a
        restore) sorts the pending rows once. Either way the columns
        hold the same values in the same order a full sort gives, so
        every cold row reads the same quantiles, bit for bit.
        """
        pending = self._pending
        cold = self._cold
        n = len(pending)
        if cold is None and n == 1:
            cold = _np.empty((0, self.n_features))
        if cold is not None and len(cold) == n - 1:
            x = _np.asarray(pending[-1], dtype=_np.float64)
            # Left insertion point per column; NaN sorts last.
            at = _np.where(_np.isnan(x), n - 1, (cold < x).sum(axis=0))
            rows = _np.arange(n)[:, None]
            shifted = _np.empty((n, self.n_features))
            shifted[:n - 1] = cold
            below = rows < at
            # Rows below the insertion point stay, the rest move down.
            cold = _np.where(below, shifted, _np.roll(shifted, 1, axis=0))
            cold[at, _np.arange(self.n_features)] = x
        elif cold is None or len(cold) != n:
            cold = _sorted_columns(pending)
        self._cold = cold
        return cold

    def _refresh_bounds(self) -> None:
        if self._folded or not self._pending:
            lo, hi, low, high = self._lo, self._hi, self._min, self._max
        else:
            # Cold start: the pending rows' exact quantiles.
            lo, hi, low, high = self._summary(self._cold_sorted())
        span = hi - lo
        degenerate = ~(span > 0)
        los = _np.where(degenerate, low, lo)
        spans = _np.where(degenerate, high - low, span)
        valid = spans > 0
        self._arrays = (los, spans, valid)
        self._pairs = [
            (lo_f, span_f) if ok else None
            for lo_f, span_f, ok in zip(
                los.tolist(), spans.tolist(), valid.tolist()
            )
        ]

    def sketch_state(self) -> Dict[str, Any]:
        """JSON-ready sketch state (checkpoints, serve snapshots)."""
        return {
            "folded": self._folded,
            "lo": self._lo.tolist(),
            "hi": self._hi.tolist(),
            "min": self._min.tolist(),
            "max": self._max.tolist(),
            "pending": [list(row) for row in self._pending],
        }

    def restore_sketch(self, state: Dict[str, Any]) -> None:
        """Load :meth:`sketch_state` output; the estimates only matter
        (and are only read) once something has been folded."""
        self._folded = int(state["folded"])
        if self._folded:
            self._lo = _np.array(state["lo"], dtype=_np.float64)
            self._hi = _np.array(state["hi"], dtype=_np.float64)
            self._min = _np.array(state["min"], dtype=_np.float64)
            self._max = _np.array(state["max"], dtype=_np.float64)
        self._pending = [
            tuple(float(v) for v in row) for row in state["pending"]
        ]
        self._cold = None
        self._pairs = None

    @property
    def bounds(self) -> List[Optional[Tuple[float, float]]]:
        """Per-feature ``(lo, hi)`` currently scaled against (``None``
        where the feature has no positive span yet)."""
        if self._pairs is None:
            self._refresh_bounds()
        return [
            None if pair is None else (pair[0], pair[0] + pair[1])
            for pair in self._pairs
        ]

    # -- row path ------------------------------------------------------

    def observe(self, x: Sequence[float]) -> None:
        self._check(x)
        self.observed += 1
        pending = self._pending
        pending.append(x if type(x) is tuple else tuple(x))
        if len(pending) == BLOCK_ROWS:
            self._fold_pending()
        elif not self._folded:
            self._pairs = None

    def transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        self._check(x)
        if self._pairs is None:
            self._refresh_bounds()
        self.n_transformed += len(x)
        n_clipped = 0
        row = []
        for pair, value in zip(self._pairs, x):
            if pair is None:
                row.append(0.0)
                continue
            scaled = (value - pair[0]) / pair[1]
            if scaled < 0.0:
                n_clipped += 1
                scaled = 0.0
            elif scaled > 1.0:
                n_clipped += 1
                scaled = 1.0
            row.append(scaled)
        self.n_clipped += n_clipped
        return tuple(row)

    def merge(self, other: Normalizer) -> None:
        """Count-weighted fold of the other side's sketch into this one.

        The other side's running estimates go in weighted by its folded
        count and its not-yet-folded rows go in as one block, so no
        observation is dropped; this side's own pending rows stay
        pending. Merging into an empty normalizer copies the estimates
        exactly. Partitions of a micro-batch are round-robin splits of
        one stream, so the weighted mean of their block quantiles is a
        tight estimate of the single-pass bounds.
        """
        if not isinstance(other, MinMaxNoOutliersNormalizer):
            raise TypeError(
                f"cannot merge MinMaxNoOutliersNormalizer with {type(other)}"
            )
        if (
            self.lower_quantile != other.lower_quantile
            or self.upper_quantile != other.upper_quantile
        ):
            raise ValueError("cannot merge normalizers with different bounds")
        self._merge_counts(other)
        if other._folded:
            self._fold(
                other._folded, other._lo, other._hi, other._min, other._max
            )
        if other._pending:
            self._fold_block(other._pending)

    def fresh(self) -> "MinMaxNoOutliersNormalizer":
        return MinMaxNoOutliersNormalizer(
            self.n_features, self.lower_quantile, self.upper_quantile
        )

    # -- batch kernels -------------------------------------------------
    # Same sketch, same block boundaries: a batch is cut wherever the
    # row path would have folded, each cut's rows are scaled in one
    # numpy expression against the bounds in force, and the row that
    # completes a block is scaled after the fold it triggers — exactly
    # as observe() then transform() would.

    def _scale_into(self, X, out: List[Tuple[float, ...]]) -> None:
        if len(X) == 0:
            return
        if self._pairs is None:
            self._refresh_bounds()
        self.n_transformed += X.size
        rows, clipped = _scale_clip(X, *self._arrays)
        self.n_clipped += clipped
        out.extend(_rows_as_tuples(rows))

    def _observe_from(
        self, X, start: int, out: Optional[List[Tuple[float, ...]]]
    ) -> None:
        """Observe ``X[start:]``; with ``out``, also scale each row."""
        pending = self._pending
        n = len(X)
        self.observed += n - start
        done = at = start
        while at < n:
            take = min(BLOCK_ROWS - len(pending), n - at)
            chunk = X[at:at + take]
            at += take
            if take < BLOCK_ROWS:
                pending.extend(map(tuple, chunk.tolist()))
                if len(pending) < BLOCK_ROWS:
                    break
            if out is not None:
                self._scale_into(X[done:at - 1], out)
                done = at - 1
            if pending:
                self._fold_pending()
            else:
                self._fold_block(chunk)
        if out is not None:
            self._scale_into(X[done:], out)

    def observe_many(self, xs: Sequence[Sequence[float]]) -> None:
        X = _as_matrix(xs, self.n_features)
        if X is None:
            return super().observe_many(xs)
        self._observe_from(X, 0, None)
        if not self._folded:
            self._pairs = None

    def observe_and_transform_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        X = _as_matrix(xs, self.n_features)
        if X is None:
            return super().observe_and_transform_many(xs)
        out: List[Tuple[float, ...]] = []
        cold = 0
        if not self._folded:
            # Cold start: the bounds move with every row.
            for x in X[:BLOCK_ROWS].tolist():
                out.append(self.observe_and_transform(tuple(x)))
                cold += 1
                if self._folded:
                    break
        self._observe_from(X, cold, out)
        return out


class ZScoreNormalizer(Normalizer):
    """Standardize each feature to zero mean and unit std."""

    def __init__(self, n_features: int) -> None:
        super().__init__(n_features)
        self._stats: List[RunningStats] = [
            RunningStats() for _ in range(n_features)
        ]

    def observe(self, x: Sequence[float]) -> None:
        self._check(x)
        self.observed += 1
        for stats, value in zip(self._stats, x):
            stats.update(value)

    def transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        self._check(x)
        result = []
        for stats, value in zip(self._stats, x):
            std = stats.std
            if stats.count < 2 or std <= 0:
                result.append(0.0)
            else:
                result.append((value - stats.mean) / std)
        return tuple(result)

    def merge(self, other: Normalizer) -> None:
        if not isinstance(other, ZScoreNormalizer):
            raise TypeError(f"cannot merge ZScoreNormalizer with {type(other)}")
        self._merge_counts(other)
        self._stats = [
            mine.merge(theirs)
            for mine, theirs in zip(self._stats, other._stats)
        ]

    def observe_many(self, xs: Sequence[Sequence[float]]) -> None:
        stats_list = self._stats
        for x in xs:
            self._check(x)
            self.observed += 1
            for stats, value in zip(stats_list, x):
                stats.update(value)

    def observe_and_transform_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        stats_list = self._stats
        sqrt = math.sqrt
        out: List[Tuple[float, ...]] = []
        for x in xs:
            self._check(x)
            self.observed += 1
            row = []
            for stats, value in zip(stats_list, x):
                stats.update(value)
                count = stats.count
                # Inline stats.std (same arithmetic as the property).
                if count <= 1:
                    row.append(0.0)
                    continue
                variance = stats._m2 / count
                if variance < 0.0:
                    variance = 0.0
                std = sqrt(variance)
                if count < 2 or std <= 0:
                    row.append(0.0)
                else:
                    row.append((value - stats.mean) / std)
            out.append(tuple(row))
        return out


class IdentityNormalizer(Normalizer):
    """The n=OFF baseline: passes features through unchanged."""

    def observe(self, x: Sequence[float]) -> None:
        self._check(x)
        self.observed += 1

    def transform(self, x: Sequence[float]) -> Tuple[float, ...]:
        self._check(x)
        return tuple(float(v) for v in x)

    def merge(self, other: Normalizer) -> None:
        self._merge_counts(other)


def make_normalizer(kind: str, n_features: int) -> Normalizer:
    """Factory over the paper's three normalization forms (+identity).

    Args:
        kind: "minmax", "minmax_no_outliers", "zscore", or "none".
        n_features: feature-vector width.
    """
    if kind == MINMAX:
        return MinMaxNormalizer(n_features)
    if kind == MINMAX_NO_OUTLIERS:
        return MinMaxNoOutliersNormalizer(n_features)
    if kind == ZSCORE:
        return ZScoreNormalizer(n_features)
    if kind in ("none", "identity"):
        return IdentityNormalizer(n_features)
    raise ValueError(
        f"unknown normalizer kind {kind!r}; expected one of {KINDS}"
    )

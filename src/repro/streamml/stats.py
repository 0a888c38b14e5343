"""Incremental statistics used across the streaming pipeline.

Everything here is single-pass and mergeable: the normalization stage, the
Gaussian attribute observers inside the Hoeffding Tree, and the adaptive
bag-of-words all rely on these primitives, and the distributed engine
merges per-partition statistics into global ones.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence


class RunningStats:
    """Welford's online mean/variance with support for merging.

    Supports weighted updates. ``merge`` implements the parallel variance
    combination (Chan et al.) so per-partition statistics can be combined
    exactly.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0.0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float, weight: float = 1.0) -> None:
        """Fold one observation into the statistics."""
        if weight <= 0:
            return
        self.count += weight
        delta = value - self.mean
        self.mean += (weight / self.count) * delta
        self._m2 += weight * delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Population variance (0 when fewer than two observations)."""
        if self.count <= 1:
            return 0.0
        return max(self._m2 / self.count, 0.0)

    @property
    def std(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new RunningStats equal to processing both inputs."""
        merged = RunningStats()
        total = self.count + other.count
        if total == 0:
            return merged
        delta = other.mean - self.mean
        merged.count = total
        merged.mean = self.mean + delta * (other.count / total)
        merged._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / total
        )
        return merged

    def copy(self) -> "RunningStats":
        """Return an independent copy."""
        out = RunningStats()
        out.count = self.count
        out.mean = self.mean
        out._m2 = self._m2
        return out

    def __repr__(self) -> str:
        return (
            f"RunningStats(count={self.count:.1f}, mean={self.mean:.4f}, "
            f"std={self.std:.4f})"
        )


class RunningMinMax:
    """Tracks the running minimum and maximum of a stream."""

    __slots__ = ("count", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def update(self, value: float) -> None:
        """Fold one observation."""
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def range(self) -> float:
        """max - min, or 0 if empty."""
        if self.count == 0:
            return 0.0
        return self.max - self.min

    def merge(self, other: "RunningMinMax") -> "RunningMinMax":
        """Return a new RunningMinMax covering both inputs."""
        merged = RunningMinMax()
        merged.count = self.count + other.count
        merged.min = min(self.min, other.min)
        merged.max = max(self.max, other.max)
        return merged

    def copy(self) -> "RunningMinMax":
        """Return an independent copy."""
        out = RunningMinMax()
        out.count = self.count
        out.min = self.min
        out.max = self.max
        return out

    def __repr__(self) -> str:
        if self.count == 0:
            return "RunningMinMax(empty)"
        return f"RunningMinMax(min={self.min:.4f}, max={self.max:.4f})"


class P2Quantile:
    """Streaming quantile estimate via the P² algorithm (Jain & Chlamtac).

    Used by the ``repro.obs`` histograms to estimate p50/p95/p99 in a
    single pass without storing observations.
    """

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self._initial: List[float] = []
        # Marker heights, positions, and desired positions.
        self._q: List[float] = []
        self._n: List[float] = []
        self._np: List[float] = []
        self._dn: List[float] = []
        self.count = 0

    def update(self, value: float) -> None:
        """Fold one observation.

        Histograms call this on hot per-tweet paths, so the
        marker-adjustment loop binds the marker lists to locals and
        inlines the textbook parabolic and linear marker formulas (Jain
        & Chlamtac, 1985) in their published arithmetic and branch
        order.
        """
        self.count += 1
        initial = self._initial
        if len(initial) < 5:
            initial.append(value)
            if len(initial) == 5:
                initial.sort()
                p = self.quantile
                self._q = list(initial)
                self._n = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._np = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
                self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            return

        q = self._q
        n = self._n
        np_ = self._np
        dn = self._dn

        # Find cell k such that q[k] <= value < q[k+1].
        if value < q[0]:
            q[0] = value
            k = 0
        elif value >= q[4]:
            q[4] = value
            k = 3
        else:
            k = 0
            for i in range(4):
                if q[i] <= value < q[i + 1]:
                    k = i
                    break

        for i in range(k + 1, 5):
            n[i] += 1
        np_[0] += dn[0]
        np_[1] += dn[1]
        np_[2] += dn[2]
        np_[3] += dn[3]
        np_[4] += dn[4]

        # Adjust interior markers.
        for i in (1, 2, 3):
            n_i = n[i]
            d = np_[i] - n_i
            n_right = n[i + 1]
            n_left = n[i - 1]
            if (d >= 1 and n_right - n_i > 1) or (
                d <= -1 and n_left - n_i < -1
            ):
                sign = 1.0 if d >= 1 else -1.0
                q_i = q[i]
                # Parabolic (P²) candidate, falling back to linear.
                term1 = sign / (n_right - n_left)
                term2 = (
                    (n_i - n_left + sign)
                    * (q[i + 1] - q_i)
                    / (n_right - n_i)
                )
                term3 = (
                    (n_right - n_i - sign)
                    * (q_i - q[i - 1])
                    / (n_i - n_left)
                )
                candidate = q_i + term1 * (term2 + term3)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    j = i + int(sign)
                    q[i] = q_i + sign * (q[j] - q_i) / (n[j] - n_i)
                n[i] = n_i + sign

    @property
    def value(self) -> Optional[float]:
        """Current quantile estimate (``None`` until any data arrives)."""
        if self.count == 0:
            return None
        if len(self._initial) < 5:
            ordered = sorted(self._initial)
            idx = min(int(self.quantile * len(ordered)), len(ordered) - 1)
            return ordered[idx]
        return self._q[2]

    def copy(self) -> "P2Quantile":
        """Return an independent copy."""
        out = P2Quantile(self.quantile)
        out._initial = list(self._initial)
        out._q = list(self._q)
        out._n = list(self._n)
        out._np = list(self._np)
        out._dn = list(self._dn)
        out.count = self.count
        return out

    def merge(self, other: "P2Quantile") -> "P2Quantile":
        """Return a sketch approximating the concatenation of both streams.

        P² is not exactly mergeable. The combination rule blends the two
        sketches' interior marker heights weighted by observation count,
        keeps the covering extremes, and sums the marker positions. When
        one side has fewer than five observations (still buffering its
        initial samples) those samples are replayed exactly into the
        other sketch. The approximation is tight when both sides draw
        from a similar distribution — the partition-merge case, where
        round-robin partitioning keeps per-partition distributions
        representative of the batch.
        """
        if self.quantile != other.quantile:
            raise ValueError(
                f"cannot merge sketches for quantiles "
                f"{self.quantile} and {other.quantile}"
            )
        heavy, light = (
            (self, other) if self.count >= other.count else (other, self)
        )
        if light.count == 0:
            return heavy.copy()
        if len(light._q) == 0:  # light still buffering (< 5 observations)
            merged = heavy.copy()
            for value in light._initial:
                merged.update(value)
            return merged
        merged = heavy.copy()
        total = heavy.count + light.count
        weight = light.count / total
        merged._q[0] = min(heavy._q[0], light._q[0])
        merged._q[4] = max(heavy._q[4], light._q[4])
        for i in (1, 2, 3):
            merged._q[i] = (1 - weight) * heavy._q[i] + weight * light._q[i]
        merged._n = [heavy._n[i] + light._n[i] for i in range(5)]
        merged._np = [1 + (total - 1) * merged._dn[i] for i in range(5)]
        merged.count = total
        return merged

    def __repr__(self) -> str:
        return f"P2Quantile(q={self.quantile}, value={self.value})"


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile of a finite sequence (linear interpolation).

    Args:
        values: non-empty sequence.
        q: percentile in [0, 100].
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (q / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    if lo == hi:
        return ordered[lo]
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac

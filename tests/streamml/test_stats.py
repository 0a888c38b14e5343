"""Tests for incremental statistics (repro.streamml.stats)."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streamml.stats import (
    P2Quantile,
    RunningMinMax,
    RunningStats,
    percentile,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        assert stats.std == 0.0

    def test_single_value(self):
        stats = RunningStats()
        stats.update(5.0)
        assert stats.mean == 5.0
        assert stats.variance == 0.0

    def test_matches_statistics_module(self):
        values = [1.5, 2.5, -3.0, 7.0, 0.0, 4.2]
        stats = RunningStats()
        for v in values:
            stats.update(v)
        assert stats.mean == pytest.approx(statistics.mean(values))
        assert stats.variance == pytest.approx(statistics.pvariance(values))

    def test_weighted_update_equals_repeats(self):
        weighted = RunningStats()
        repeated = RunningStats()
        weighted.update(3.0, weight=4.0)
        weighted.update(1.0, weight=2.0)
        for _ in range(4):
            repeated.update(3.0)
        for _ in range(2):
            repeated.update(1.0)
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.variance == pytest.approx(repeated.variance)

    def test_zero_weight_ignored(self):
        stats = RunningStats()
        stats.update(10.0, weight=0.0)
        assert stats.count == 0

    @given(
        st.lists(finite_floats, min_size=1, max_size=50),
        st.lists(finite_floats, min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_sequential(self, left, right):
        merged_input = RunningStats()
        for v in left + right:
            merged_input.update(v)
        a = RunningStats()
        b = RunningStats()
        for v in left:
            a.update(v)
        for v in right:
            b.update(v)
        merged = a.merge(b)
        assert merged.count == pytest.approx(merged_input.count)
        assert merged.mean == pytest.approx(merged_input.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(
            merged_input.variance, rel=1e-6, abs=1e-4
        )

    def test_merge_with_empty(self):
        a = RunningStats()
        a.update(1.0)
        a.update(2.0)
        merged = a.merge(RunningStats())
        assert merged.mean == pytest.approx(1.5)

    def test_copy_independent(self):
        a = RunningStats()
        a.update(1.0)
        b = a.copy()
        b.update(100.0)
        assert a.count == 1
        assert b.count == 2


class TestRunningMinMax:
    def test_empty_range_zero(self):
        tracker = RunningMinMax()
        assert tracker.range == 0.0

    def test_tracks_extremes(self):
        tracker = RunningMinMax()
        for v in (3.0, -1.0, 7.0, 2.0):
            tracker.update(v)
        assert tracker.min == -1.0
        assert tracker.max == 7.0
        assert tracker.range == 8.0

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_matches_builtin(self, values):
        tracker = RunningMinMax()
        for v in values:
            tracker.update(v)
        assert tracker.min == min(values)
        assert tracker.max == max(values)

    def test_merge(self):
        a = RunningMinMax()
        b = RunningMinMax()
        a.update(1.0)
        b.update(-5.0)
        b.update(9.0)
        merged = a.merge(b)
        assert merged.min == -5.0
        assert merged.max == 9.0
        assert merged.count == 3


class TestP2Quantile:
    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)

    def test_empty_returns_none(self):
        assert P2Quantile(0.5).value is None

    def test_small_sample_exact(self):
        sketch = P2Quantile(0.5)
        for v in (1.0, 2.0, 3.0):
            sketch.update(v)
        assert sketch.value == 2.0

    def test_median_of_uniform(self):
        rng = random.Random(1)
        sketch = P2Quantile(0.5)
        for _ in range(20_000):
            sketch.update(rng.random())
        assert sketch.value == pytest.approx(0.5, abs=0.02)

    def test_tail_quantile_of_gaussian(self):
        rng = random.Random(2)
        sketch = P2Quantile(0.95)
        for _ in range(30_000):
            sketch.update(rng.gauss(0, 1))
        assert sketch.value == pytest.approx(1.645, abs=0.1)

    def test_monotone_quantiles(self):
        rng = random.Random(3)
        low = P2Quantile(0.05)
        high = P2Quantile(0.95)
        for _ in range(5000):
            v = rng.expovariate(1.0)
            low.update(v)
            high.update(v)
        assert low.value < high.value


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([5.0], 75) == 5.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, values):
        assert percentile(values, 0) == min(values)
        assert percentile(values, 100) == max(values)

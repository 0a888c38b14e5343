"""Property tests for partition-merge normalizer semantics.

The micro-batch engine relies on ``merge(split_a, split_b)`` being
equivalent to a single-pass ``observe`` over the concatenated stream —
exactly for min-max and z-score; the no-outliers block sketch merges
approximately and is covered in ``test_block_sketch.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import (
    IdentityNormalizer,
    MinMaxNormalizer,
    ZScoreNormalizer,
)

vectors = st.lists(
    st.tuples(
        st.floats(-1e4, 1e4, allow_nan=False),
        st.floats(-1e4, 1e4, allow_nan=False),
    ),
    min_size=1,
    max_size=80,
)

split_points = st.integers(min_value=0, max_value=80)

probes = st.tuples(
    st.floats(-1e4, 1e4, allow_nan=False),
    st.floats(-1e4, 1e4, allow_nan=False),
)


def _split_observe(normalizer_cls, data, split):
    """Observe ``data`` split in two, then merge the halves."""
    left = normalizer_cls(2)
    right = normalizer_cls(2)
    for vector in data[:split]:
        left.observe(vector)
    for vector in data[split:]:
        right.observe(vector)
    left.merge(right)
    return left


class TestMinMaxMergeEqualsSinglePass:
    @given(vectors, split_points, probes)
    @settings(max_examples=60, deadline=None)
    def test_merge_of_splits(self, data, split, probe):
        split = min(split, len(data))
        single = MinMaxNormalizer(2)
        for vector in data:
            single.observe(vector)
        merged = _split_observe(MinMaxNormalizer, data, split)
        assert merged.observed == single.observed == len(data)
        assert merged.transform(probe) == pytest.approx(
            single.transform(probe)
        )

    @given(vectors)
    @settings(max_examples=30, deadline=None)
    def test_merge_with_empty_is_identity(self, data):
        single = MinMaxNormalizer(2)
        for vector in data:
            single.observe(vector)
        merged = _split_observe(MinMaxNormalizer, data, len(data))
        assert merged.transform(data[0]) == pytest.approx(
            single.transform(data[0])
        )


# Integer-valued features keep the variance either exactly zero (all
# duplicates, on both code paths) or comfortably positive, so the
# transform comparison never divides by a rounding-noise-sized std.
int_vectors = st.lists(
    st.tuples(
        st.integers(-10_000, 10_000).map(float),
        st.integers(-10_000, 10_000).map(float),
    ),
    min_size=1,
    max_size=80,
)


class TestZScoreMergeEqualsSinglePass:
    @given(int_vectors, split_points, probes)
    @settings(max_examples=60, deadline=None)
    def test_merge_of_splits(self, data, split, probe):
        split = min(split, len(data))
        single = ZScoreNormalizer(2)
        for vector in data:
            single.observe(vector)
        merged = _split_observe(ZScoreNormalizer, data, split)
        assert merged.observed == single.observed == len(data)
        expected = single.transform(probe)
        got = merged.transform(probe)
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, rel=1e-6, abs=1e-6)

    @given(vectors, split_points)
    @settings(max_examples=30, deadline=None)
    def test_merged_moments_match(self, data, split):
        split = min(split, len(data))
        single = ZScoreNormalizer(2)
        for vector in data:
            single.observe(vector)
        merged = _split_observe(ZScoreNormalizer, data, split)
        for merged_stats, single_stats in zip(merged._stats, single._stats):
            assert merged_stats.count == single_stats.count
            assert merged_stats.mean == pytest.approx(
                single_stats.mean, rel=1e-9, abs=1e-8
            )
            assert merged_stats.variance == pytest.approx(
                single_stats.variance, rel=1e-6, abs=1e-4
            )


class TestIdentityMerge:
    @given(vectors, split_points)
    @settings(max_examples=20, deadline=None)
    def test_counts_add_up(self, data, split):
        split = min(split, len(data))
        merged = _split_observe(IdentityNormalizer, data, split)
        assert merged.observed == len(data)

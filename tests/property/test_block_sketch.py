"""Block-quantile sketch contract of ``minmax_no_outliers``.

Bit-exact: the row path ``==`` the ``*_many`` kernels under any
chunking of the stream (outputs, bounds, ``observed``, ``n_clipped``),
because both cut blocks at the same row counts. Pinned by accuracy
only: the bounds themselves, against ``numpy.quantile`` on stationary
streams, and ``merge`` of ``fresh()`` partitions against one pass.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import BLOCK_ROWS, MinMaxNoOutliersNormalizer

N_FEATURES = 4


def _stream(seed: int, n: int) -> list:
    """Rows mixing the feature shapes the extractor emits: a log-normal
    magnitude, a small count, a rare (97%-zero) count and a constant."""
    rng = np.random.default_rng(seed)
    columns = [
        rng.lognormal(0.0, 1.0, n),
        rng.poisson(3.0, n).astype(float),
        np.where(rng.random(n) < 0.03, rng.integers(1, 4, n), 0).astype(float),
        np.full(n, 7.0),
    ]
    return [tuple(row) for row in np.column_stack(columns).tolist()]


def _chunks(rows: list, sizes: list) -> list:
    out, at = [], 0
    for size in sizes:
        if at >= len(rows):
            break
        out.append(rows[at:at + size])
        at += size
    out.append(rows[at:])
    return out


def _state(normalizer: MinMaxNoOutliersNormalizer):
    return (
        normalizer.bounds,
        normalizer.observed,
        normalizer.n_transformed,
        normalizer.n_clipped,
        normalizer.sketch_state(),
    )


seeds = st.integers(min_value=0, max_value=2**16)
lengths = st.integers(min_value=0, max_value=3 * BLOCK_ROWS + 40)
chunk_sizes = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=BLOCK_ROWS - 2, max_value=2 * BLOCK_ROWS + 2),
    ),
    max_size=12,
)


class TestRowPathEqualsBatchPath:
    @given(seed=seeds, n=lengths, sizes=chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_observe_and_transform_many(self, seed, n, sizes):
        rows = _stream(seed, n)
        by_row = MinMaxNoOutliersNormalizer(N_FEATURES)
        expected = [by_row.observe_and_transform(x) for x in rows]
        batched = MinMaxNoOutliersNormalizer(N_FEATURES)
        got = []
        for index, chunk in enumerate(_chunks(rows, sizes)):
            # Alternate row sequences and the float64 matrix the
            # partition task hands over.
            if index % 2 and chunk:
                chunk = np.asarray(chunk, dtype=np.float64)
            got.extend(batched.observe_and_transform_many(chunk))
        assert got == expected
        assert _state(batched) == _state(by_row)

    @given(seed=seeds, n=lengths, sizes=chunk_sizes)
    @settings(max_examples=40, deadline=None)
    def test_observe_many_then_transform_many(self, seed, n, sizes):
        rows = _stream(seed, n)
        probes = _stream(seed + 1, 25)
        by_row = MinMaxNoOutliersNormalizer(N_FEATURES)
        for x in rows:
            by_row.observe(x)
        expected = [by_row.transform(x) for x in probes]
        batched = MinMaxNoOutliersNormalizer(N_FEATURES)
        for chunk in _chunks(rows, sizes):
            batched.observe_many(chunk)
        assert [batched.transform(x) for x in probes] == expected
        assert _state(batched) == _state(by_row)

    def test_ragged_batch_raises_like_the_row_path(self):
        normalizer = MinMaxNoOutliersNormalizer(2)
        with pytest.raises(ValueError):
            normalizer.observe_and_transform_many([(1.0, 2.0), (1.0,)])
        assert normalizer.observed == 1  # the good row before the bad one


class TestAccuracy:
    """Bounds within 10% of the true 5%/95% span after 5k rows."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lognormal_and_discrete_counts(self, seed):
        rng = np.random.default_rng(seed)
        n = 5000
        X = np.column_stack(
            [
                rng.lognormal(0.0, 1.0, n),
                rng.lognormal(2.0, 0.5, n),
                rng.poisson(5.0, n),
                rng.poisson(12.0, n),
                rng.geometric(0.3, n),
            ]
        ).astype(float)
        normalizer = MinMaxNoOutliersNormalizer(X.shape[1])
        normalizer.observe_many(X)
        true_lo = np.quantile(X, 0.05, axis=0)
        true_hi = np.quantile(X, 0.95, axis=0)
        for (lo, hi), t_lo, t_hi in zip(normalizer.bounds, true_lo, true_hi):
            span = t_hi - t_lo
            assert abs(lo - t_lo) <= 0.10 * span
            assert abs(hi - t_hi) <= 0.10 * span


class TestMerge:
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_fresh_partitions_approximate_one_pass(self, k):
        rows = _stream(11, 4000)
        single = MinMaxNoOutliersNormalizer(N_FEATURES)
        single.observe_many(rows)
        driver = MinMaxNoOutliersNormalizer(N_FEATURES)
        for part in range(k):  # round-robin split, like the engine
            local = driver.fresh()
            local.observe_many(rows[part::k])
            driver.merge(local)
        assert driver.observed == single.observed == len(rows)
        for got, want in zip(driver.bounds[:2], single.bounds[:2]):
            span = want[1] - want[0]
            assert got[0] == pytest.approx(want[0], abs=0.1 * span)
            assert got[1] == pytest.approx(want[1], abs=0.1 * span)

    @given(
        n_self=st.integers(0, BLOCK_ROWS + 30),
        n_other=st.integers(0, BLOCK_ROWS + 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_never_loses_unfolded_rows(self, n_self, n_other):
        """Every observed row is either folded or still pending."""
        mine = MinMaxNoOutliersNormalizer(N_FEATURES)
        mine.observe_many(_stream(3, n_self))
        theirs = mine.fresh()
        theirs.observe_many(_stream(4, n_other))
        mine.merge(theirs)
        state = mine.sketch_state()
        assert state["folded"] + len(state["pending"]) == n_self + n_other
        assert mine.observed == n_self + n_other
        # The other side's pending rows went in as a block: an extreme
        # that only they hold is inside the tracked min/max.
        if n_other:
            assert state["max"][0] >= max(
                row[0] for row in _stream(4, n_other)
            )

    def test_merge_into_empty_copies_exactly(self):
        source = MinMaxNoOutliersNormalizer(N_FEATURES)
        source.observe_many(_stream(5, 2 * BLOCK_ROWS))
        clone = source.fresh()
        clone.merge(source)
        assert _state(clone) == _state(source)

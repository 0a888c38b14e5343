"""Tests for the incremental normalizers."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import (
    BLOCK_ROWS,
    IdentityNormalizer,
    MinMaxNoOutliersNormalizer,
    MinMaxNormalizer,
    ZScoreNormalizer,
    make_normalizer,
)
from repro.streamml.instance import Instance

vectors = st.lists(
    st.tuples(
        st.floats(-1e4, 1e4, allow_nan=False),
        st.floats(-1e4, 1e4, allow_nan=False),
    ),
    min_size=2,
    max_size=60,
)


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_normalizer("minmax", 3), MinMaxNormalizer)
        assert isinstance(
            make_normalizer("minmax_no_outliers", 3), MinMaxNoOutliersNormalizer
        )
        assert isinstance(make_normalizer("zscore", 3), ZScoreNormalizer)
        assert isinstance(make_normalizer("none", 3), IdentityNormalizer)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_normalizer("rank", 3)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            MinMaxNormalizer(0)


class TestMinMax:
    def test_scales_into_unit_interval(self):
        normalizer = MinMaxNormalizer(1)
        for v in (0.0, 10.0, 5.0):
            normalizer.observe((v,))
        assert normalizer.transform((0.0,)) == (0.0,)
        assert normalizer.transform((10.0,)) == (1.0,)
        assert normalizer.transform((5.0,)) == (0.5,)

    def test_clamps_unseen_extremes(self):
        normalizer = MinMaxNormalizer(1)
        normalizer.observe((0.0,))
        normalizer.observe((1.0,))
        assert normalizer.transform((5.0,)) == (1.0,)
        assert normalizer.transform((-5.0,)) == (0.0,)

    def test_constant_feature_maps_to_zero(self):
        normalizer = MinMaxNormalizer(1)
        normalizer.observe((3.0,))
        normalizer.observe((3.0,))
        assert normalizer.transform((3.0,)) == (0.0,)

    def test_width_mismatch(self):
        normalizer = MinMaxNormalizer(2)
        with pytest.raises(ValueError):
            normalizer.observe((1.0,))

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_outputs_always_in_unit_interval(self, data):
        normalizer = MinMaxNormalizer(2)
        for vector in data:
            out = normalizer.observe_and_transform(vector)
            assert all(0.0 <= v <= 1.0 for v in out)

    def test_merge(self):
        a = MinMaxNormalizer(1)
        b = MinMaxNormalizer(1)
        a.observe((0.0,))
        b.observe((10.0,))
        a.merge(b)
        assert a.transform((5.0,)) == (0.5,)


class TestMinMaxNoOutliers:
    def test_outlier_does_not_stretch_range(self):
        rng = random.Random(0)
        robust = MinMaxNoOutliersNormalizer(1)
        plain = MinMaxNormalizer(1)
        for _ in range(5000):
            v = (rng.uniform(0, 1),)
            robust.observe(v)
            plain.observe(v)
        outlier = (1000.0,)
        robust.observe(outlier)
        plain.observe(outlier)
        mid = (0.5,)
        # Plain min-max collapses everything near 0; robust stays ~0.5.
        assert plain.transform(mid)[0] < 0.01
        assert robust.transform(mid)[0] == pytest.approx(0.5, abs=0.1)

    def test_invalid_quantiles(self):
        with pytest.raises(ValueError):
            MinMaxNoOutliersNormalizer(1, lower_quantile=0.9, upper_quantile=0.1)

    def test_clipping(self):
        normalizer = MinMaxNoOutliersNormalizer(1)
        rng = random.Random(1)
        for _ in range(1000):
            normalizer.observe((rng.uniform(0, 1),))
        assert normalizer.transform((99.0,)) == (1.0,)
        assert normalizer.transform((-99.0,)) == (0.0,)

    def test_merge_of_splits_approximates_single_pass(self):
        """The engine's use case: partitions of one batch merge back."""
        rng = random.Random(2)
        data = [(rng.uniform(0, 1),) for _ in range(2000)]
        together = MinMaxNoOutliersNormalizer(1)
        for v in data:
            together.observe(v)
        a = MinMaxNoOutliersNormalizer(1)
        b = MinMaxNoOutliersNormalizer(1)
        for index, v in enumerate(data):  # round-robin split
            (a if index % 2 == 0 else b).observe(v)
        a.merge(b)
        assert a.observed == 2000
        for probe in (0.25, 0.5, 0.75):
            assert a.transform((probe,))[0] == pytest.approx(
                together.transform((probe,))[0], abs=0.05
            )

    def test_merge_into_light_side_keeps_heavy_statistics(self):
        a = MinMaxNoOutliersNormalizer(1)
        b = MinMaxNoOutliersNormalizer(1)
        rng = random.Random(2)
        for _ in range(3):  # still buffering initial samples
            a.observe((rng.uniform(100, 101),))
        for _ in range(1000):
            b.observe((rng.uniform(100, 101),))
        a.merge(b)
        assert a.observed == 1003
        assert a.transform((100.5,))[0] == pytest.approx(0.5, abs=0.15)

    def test_cold_start_uses_exact_quantiles_of_pending_rows(self):
        """Before the first fold the first tweets are not scaled to 0."""
        normalizer = MinMaxNoOutliersNormalizer(1)
        assert normalizer.transform((3.0,)) == (0.0,)  # nothing seen yet
        values = [float(v) for v in range(21)]
        random.Random(0).shuffle(values)
        outputs = [normalizer.observe_and_transform((v,)) for v in values]
        # 21 rows 0..20: exact 5%/95% quantiles are 1 and 19.
        assert normalizer.bounds == [(1.0, 19.0)]
        assert normalizer.transform((10.0,)) == (0.5,)
        assert sum(0.0 < out[0] < 1.0 for out in outputs[2:]) >= 10

    def test_cold_start_ends_at_first_fold_or_merge(self):
        normalizer = MinMaxNoOutliersNormalizer(1)
        for v in range(BLOCK_ROWS - 1):
            normalizer.observe((float(v),))
        assert normalizer.sketch_state()["folded"] == 0
        normalizer.observe((float(BLOCK_ROWS - 1),))
        state = normalizer.sketch_state()
        assert (state["folded"], state["pending"]) == (BLOCK_ROWS, [])
        frozen = normalizer.bounds

        local = normalizer.fresh()
        local.observe((5.0,))
        local.observe((6.0,))
        assert local.sketch_state()["folded"] == 0  # never folds a tiny block
        local.merge(normalizer)
        assert local.bounds == frozen  # merged-in estimates end cold start
        assert len(local.sketch_state()["pending"]) == 2

        normalizer.observe((1e9,))  # pending rows no longer move bounds
        assert normalizer.bounds == frozen

    def test_cold_rows_read_the_quantiles_of_a_full_sort(self):
        """Row by row insertion into the sorted cold buffer gives every
        cold row the bounds a re-sort of all pending rows gives."""
        rng = random.Random(5)
        normalizer = MinMaxNoOutliersNormalizer(3)
        reference = MinMaxNoOutliersNormalizer(3)
        for index in range(BLOCK_ROWS + 40):
            x = (
                float(rng.randint(0, 4)),  # ties
                rng.gauss(0.0, 1.0),
                rng.choice((0.0, 0.0, rng.uniform(-5, 5))),
            )
            normalizer.observe(x)
            reference.observe(x)
            if index == 100:
                # A bulk observe falls back to one sort, then inserts.
                more = [(float(v), -float(v), 0.5) for v in range(7)]
                normalizer.observe_many(more)
                reference.observe_many(more)
            reference._cold = None  # the reference re-sorts every row
            assert normalizer.bounds == reference.bounds
            assert normalizer.transform(x) == reference.transform(x)

    @staticmethod
    def _array_cold_pairs(normalizer):
        """The cold bounds as the folded path's numpy expressions give
        them over a full sort of the pending rows, bit for bit."""
        import numpy as np

        from repro.core import normalization

        ordered = normalization._sorted_columns(normalizer._pending)
        with np.errstate(invalid="ignore"):  # inf - inf
            lo, hi, low, high = normalizer._summary(ordered)
            span = hi - lo
            degenerate = ~(span > 0)
            los = np.where(degenerate, low, lo).tolist()
            spans = np.where(degenerate, high - low, span).tolist()
        return [
            (a.hex(), b.hex()) if b > 0 else None for a, b in zip(los, spans)
        ]

    def test_cold_pairs_equal_the_array_expressions_with_nan_last(self):
        """The scalar cold path is the numpy one, bit for bit: NaN sorts
        last, ±inf, signed zeros, ties and int inputs included."""
        rng = random.Random(8)
        specials = (
            float("nan"), float("inf"), -float("inf"), 0.0, -0.0, 1e-300,
        )
        normalizer = MinMaxNoOutliersNormalizer(5)
        for index in range(BLOCK_ROWS - 4):  # 3 more come in bulk
            x = (
                rng.choice(specials) if rng.random() < 0.2 else rng.gauss(0, 1),
                float(rng.randint(0, 2)),
                rng.choice((0.0, -0.0)),
                rng.randint(-3, 3),
                float("nan") if index % 3 else rng.uniform(-1, 1),
            )
            normalizer.observe_and_transform(x)
            if index == 60:
                normalizer.observe_many([(1.0, 2.0, -0.0, 4, 5.0)] * 3)
                normalizer.transform(x)
            pairs = [
                None if pair is None else (pair[0].hex(), pair[1].hex())
                for pair in normalizer._pairs
            ]
            assert pairs == self._array_cold_pairs(normalizer), index

    def test_at_most_one_full_sort_per_fold(self, monkeypatch):
        from repro.core import normalization

        sorts = []
        real = normalization._sorted_columns

        def counted(rows):
            sorts.append(len(rows))
            return real(rows)

        monkeypatch.setattr(normalization, "_sorted_columns", counted)
        rng = random.Random(6)
        normalizer = MinMaxNoOutliersNormalizer(17)
        n_rows = 3 * BLOCK_ROWS + 100
        for _ in range(n_rows):
            normalizer.observe_and_transform(
                tuple(rng.uniform(0, 1) for _ in range(17))
            )
        # Cold start inserts each row into the sorted buffer, so the
        # only full sorts are the three folds (re-sorting the pending
        # buffer per cold row would add 255 more).
        assert sorts == [BLOCK_ROWS] * (n_rows // BLOCK_ROWS)

    def test_rare_feature_falls_back_to_min_max(self):
        """A 97%-zero count has 5%/95% quantiles 0/0; it must survive
        as an indicator instead of being erased."""
        rng = random.Random(4)
        normalizer = MinMaxNoOutliersNormalizer(2)
        for _ in range(4 * BLOCK_ROWS):
            rare = float(rng.randint(1, 3)) if rng.random() < 0.03 else 0.0
            normalizer.observe((rare, rng.uniform(0, 1)))
        lo, hi = normalizer.bounds[0]
        assert (lo, hi) == (0.0, 3.0)
        assert normalizer.transform((0.0, 0.5))[0] == 0.0
        assert normalizer.transform((3.0, 0.5))[0] == 1.0
        assert 0.0 < normalizer.transform((1.0, 0.5))[0] < 1.0

    def test_constant_feature_scales_to_zero(self):
        normalizer = MinMaxNoOutliersNormalizer(1)
        for _ in range(BLOCK_ROWS + 5):
            normalizer.observe((7.0,))
        assert normalizer.bounds == [None]
        assert normalizer.transform((7.0,)) == (0.0,)
        assert normalizer.n_clipped == 0

    def test_merge_rejects_mismatched_bounds(self):
        a = MinMaxNoOutliersNormalizer(1, 0.05, 0.95)
        b = MinMaxNoOutliersNormalizer(1, 0.10, 0.90)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_fresh_copies_configuration(self):
        a = MinMaxNoOutliersNormalizer(3, 0.10, 0.90)
        a.observe((1.0, 2.0, 3.0))
        b = a.fresh()
        assert isinstance(b, MinMaxNoOutliersNormalizer)
        assert b.observed == 0
        assert (b.n_features, b.lower_quantile, b.upper_quantile) == (
            3,
            0.10,
            0.90,
        )


class TestZScore:
    def test_standardizes(self):
        normalizer = ZScoreNormalizer(1)
        rng = random.Random(3)
        for _ in range(5000):
            normalizer.observe((rng.gauss(10.0, 2.0),))
        assert normalizer.transform((10.0,))[0] == pytest.approx(0.0, abs=0.1)
        assert normalizer.transform((12.0,))[0] == pytest.approx(1.0, abs=0.1)

    def test_too_few_observations_zero(self):
        normalizer = ZScoreNormalizer(1)
        normalizer.observe((5.0,))
        assert normalizer.transform((5.0,)) == (0.0,)

    def test_merge_equals_sequential(self):
        rng = random.Random(4)
        data = [(rng.gauss(0, 5),) for _ in range(400)]
        together = ZScoreNormalizer(1)
        for v in data:
            together.observe(v)
        a = ZScoreNormalizer(1)
        b = ZScoreNormalizer(1)
        for v in data[:200]:
            a.observe(v)
        for v in data[200:]:
            b.observe(v)
        a.merge(b)
        probe = (3.3,)
        assert a.transform(probe)[0] == pytest.approx(
            together.transform(probe)[0], rel=1e-9
        )


class TestIdentity:
    def test_passthrough(self):
        normalizer = IdentityNormalizer(2)
        assert normalizer.observe_and_transform((7.0, -3.0)) == (7.0, -3.0)

    def test_transform_instance_preserves_metadata(self):
        normalizer = MinMaxNormalizer(1)
        normalizer.observe((0.0,))
        normalizer.observe((2.0,))
        instance = Instance(x=(1.0,), y=1, tweet_id="t9")
        out = normalizer.transform_instance(instance)
        assert out.x == (0.5,)
        assert out.y == 1
        assert out.tweet_id == "t9"

"""Tolerance suite: numpy ``fast_math`` kernels track the scalar kernels.

The default (``fast_math=False``) kernels carry a bit-exact contract
(see ``test_batch_kernels.py``). The numpy fast path trades that for
columnar throughput: it may reassociate float reductions (``cumsum``
prefix moments, fused multiply order), so its contract is *closeness*,
not equality — every output agrees with the scalar kernel within an
rtol pinned per kernel below. Counters (observed / transformed /
clipped / instances_seen) remain exactly equal: only float arithmetic
is allowed to drift, never control flow.

Pinned tolerances (empirical worst case is orders of magnitude below
each pin):

- ``minmax`` / ``none``: same IEEE op order per lane, drift ~0 —
  pinned at 1e-12.
- ``minmax_no_outliers``: 0 — the block-quantile sketch has one kernel
  and the flag does not fork it, so flag on and off compare with ``==``.
- ``zscore``: cumsum prefix moments cancel catastrophically near equal
  values — pinned at 1e-6 (measured ~1e-15 on typical data).
- SLR weights/probabilities: per-row numpy SGD reorders dot products —
  pinned at 1e-5 over features in ±1e3 (measured ~1e-16 on typical
  data). The feature range is bounded on purpose: reassociation error
  on the logit scales with ``|w|·|x|`` and compounds through SGD, so
  drift grows roughly quadratically with feature magnitude — at the
  ±1e6 the normalizer kernels accept, hypothesis finds >1e-5 relative
  drift, while SLR in the pipeline only ever sees *normalized*
  features in [0, 1].
"""

from __future__ import annotations

import copy
import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_bow import FixedBagOfWords
from repro.core.features import DegradeTier, FeatureExtractor, LabelEncoder
from repro.core.normalization import KINDS, make_normalizer
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.streamml.instance import Instance
from repro.streamml.slr import StreamingLogisticRegression

N_FEATURES = 5

#: Per-kernel relative tolerance — the documented fast-path contract.
RTOL = {
    "minmax": 1e-12,
    "minmax_no_outliers": 0.0,  # bit-exact: compared with ==
    "zscore": 1e-6,
    "none": 1e-12,
    "slr": 1e-5,
}
ABS_TOL = 1e-9

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

rows = st.lists(
    st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES),
    min_size=0,
    max_size=30,
)

labels = st.lists(
    st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
    min_size=0,
    max_size=30,
)

slr_finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)

slr_rows = st.lists(
    st.lists(slr_finite, min_size=N_FEATURES, max_size=N_FEATURES),
    min_size=0,
    max_size=30,
)

NORMALIZER_KINDS = tuple(KINDS) + ("none",)


def _close(a, b, rtol):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(
            _close(x, y, rtol) for x, y in zip(a, b)
        )
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if rtol == 0.0:
        return a == b
    return math.isclose(a, b, rel_tol=rtol, abs_tol=ABS_TOL)


def _pair(kind):
    scalar = make_normalizer(kind, N_FEATURES)
    fast = make_normalizer(kind, N_FEATURES, fast_math=True)
    assert fast.fast_math and not scalar.fast_math
    return scalar, fast


def _counters(normalizer):
    return (
        normalizer.observed,
        normalizer.n_transformed,
        normalizer.n_clipped,
    )


class TestNormalizerTolerance:
    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    @given(xs=rows)
    @settings(max_examples=30, deadline=None)
    def test_observe_many_close(self, kind, xs):
        scalar, fast = _pair(kind)
        scalar.observe_many(xs)
        fast.observe_many(xs)
        assert _counters(scalar) == _counters(fast)
        probe = tuple(float(i) for i in range(N_FEATURES))
        rtol = RTOL[kind]
        assert _close(
            copy.deepcopy(scalar).transform(probe),
            copy.deepcopy(fast).transform(probe),
            rtol,
        )

    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    @given(warm=rows, xs=rows)
    @settings(max_examples=30, deadline=None)
    def test_transform_many_close(self, kind, warm, xs):
        scalar, fast = _pair(kind)
        scalar.observe_many(warm)
        fast.observe_many(warm)
        rtol = RTOL[kind]
        for a, b in zip(scalar.transform_many(xs), fast.transform_many(xs)):
            assert _close(a, b, rtol)
        assert _counters(scalar) == _counters(fast)

    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    @given(warm=rows, xs=rows)
    @settings(max_examples=30, deadline=None)
    def test_observe_and_transform_many_close(self, kind, warm, xs):
        scalar, fast = _pair(kind)
        scalar.observe_many(warm)
        fast.observe_many(warm)
        rtol = RTOL[kind]
        out_scalar = scalar.observe_and_transform_many(xs)
        out_fast = fast.observe_and_transform_many(xs)
        for a, b in zip(out_scalar, out_fast):
            assert _close(a, b, rtol)
        assert _counters(scalar) == _counters(fast)

    @given(seed=st.integers(0, 2**16), n=st.integers(0, 700))
    @settings(max_examples=20, deadline=None)
    def test_no_outliers_flag_changes_nothing_across_blocks(self, seed, n):
        """The generic cases above stay inside the cold start (<= 60
        rows); this one crosses block folds."""
        X = np.random.default_rng(seed).lognormal(0.0, 1.0, (n, N_FEATURES))
        scalar, fast = _pair("minmax_no_outliers")
        assert scalar.observe_and_transform_many(
            X.tolist()
        ) == fast.observe_and_transform_many(X)
        assert _counters(scalar) == _counters(fast)
        assert scalar.sketch_state() == fast.sketch_state()

    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    def test_fresh_propagates_fast_math(self, kind):
        _, fast = _pair(kind)
        assert fast.fresh().fast_math


def _slr_pair(reg, decay):
    return (
        StreamingLogisticRegression(
            n_classes=3, regularizer=reg, decay=decay
        ),
        StreamingLogisticRegression(
            n_classes=3, regularizer=reg, decay=decay, fast_math=True
        ),
    )


class TestSLRTolerance:
    @pytest.mark.parametrize("reg", ["zero", "l1", "l2"])
    @pytest.mark.parametrize("decay", [0.0, 0.002])
    @given(xs=slr_rows, ys=labels)
    @settings(max_examples=15, deadline=None)
    def test_learn_and_predict_close(self, reg, decay, xs, ys):
        instances = [
            Instance(x=tuple(x), y=y if y is not None else 1)
            for x, y in zip(xs, ys + [None] * (len(xs) - len(ys)))
        ]
        scalar, fast = _slr_pair(reg, decay)
        scalar.learn_many(instances)
        fast.learn_many(instances)
        assert scalar.instances_seen == fast.instances_seen
        rtol = RTOL["slr"]
        for row_a, row_b in zip(scalar.weights, fast.weights):
            assert _close(row_a, row_b, rtol)
        assert _close(scalar.bias, fast.bias, rtol)
        probe = [tuple(x) for x in xs]
        for a, b in zip(
            scalar.predict_proba_many(probe), fast.predict_proba_many(probe)
        ):
            assert _close(a, b, rtol)

    def test_clone_propagates_fast_math(self):
        _, fast = _slr_pair("l2", 0.0)
        assert fast.clone().fast_math


class TestAcrossDegradeTiers:
    """Fast ≡ scalar on real tier-extracted features, every tier."""

    @pytest.fixture(scope="class")
    def stream(self):
        return AbusiveDatasetGenerator(n_tweets=150, seed=47).generate_list()

    @pytest.mark.parametrize(
        "tier", [DegradeTier.FULL, DegradeTier.NO_POS, DegradeTier.TEXT_ONLY]
    )
    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    def test_pipeline_close_on_tier_features(self, stream, tier, kind):
        extractor = FeatureExtractor(
            LabelEncoder(3), bag_of_words=FixedBagOfWords(), tier=tier
        )
        instances = [extractor.extract(t, update_bow=False) for t in stream]
        n = len(instances[0].x)
        xs = [inst.x for inst in instances]

        scalar_norm = make_normalizer(kind, n)
        fast_norm = make_normalizer(kind, n, fast_math=True)
        scalar_out = scalar_norm.observe_and_transform_many(xs)
        fast_out = fast_norm.observe_and_transform_many(xs)
        rtol = RTOL[kind]
        for a, b in zip(scalar_out, fast_out):
            assert _close(a, b, rtol)

        scalar_model = StreamingLogisticRegression(n_classes=3)
        fast_model = StreamingLogisticRegression(n_classes=3, fast_math=True)
        scalar_model.learn_many(
            [i.with_features(x) for i, x in zip(instances, scalar_out)]
        )
        fast_model.learn_many(
            [i.with_features(x) for i, x in zip(instances, fast_out)]
        )
        probe = scalar_out
        for a, b in zip(
            scalar_model.predict_proba_many(probe),
            fast_model.predict_proba_many(probe),
        ):
            assert _close(a, b, RTOL["slr"])

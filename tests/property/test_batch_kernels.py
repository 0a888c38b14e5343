"""Property tests: batch kernels must be bit-identical to scalar paths.

The ``*_many`` kernels (``Normalizer.observe_many`` /
``transform_many`` / ``observe_and_transform_many``,
``StreamClassifier.learn_many`` / ``predict_proba_many``) exist purely
to strip per-row dispatch out of the micro-batch partition loops. Their
contract is that running a batch through a kernel leaves the object in
*exactly* the state the scalar path would — same statistics, same clip
counters, same model weights, same outputs, compared with ``==`` — so
the fused partition path and the original per-tweet loop are
interchangeable. The fused one-pass feature extraction carries the same
contract across every degrade tier.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive_bow import FixedBagOfWords
from repro.core.features import DegradeTier, FeatureExtractor, LabelEncoder
from repro.core.normalization import (
    KINDS,
    MinMaxNoOutliersNormalizer,
    Normalizer,
    make_normalizer,
)
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.streamml.arf import AdaptiveRandomForest
from repro.streamml.base import StreamClassifier
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance, InstanceBlock
from repro.streamml.slr import StreamingLogisticRegression

N_FEATURES = 5

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


def _instances(xs, ys):
    return [
        Instance(x=tuple(x), y=y)
        for x, y in zip(xs, ys + [None] * (len(xs) - len(ys)))
    ]


def _normalizer_state(normalizer):
    """Comparable full state: counters plus a probe transform."""
    probe = tuple(float(i) for i in range(N_FEATURES))
    clone = copy.deepcopy(normalizer)
    return (
        normalizer.observed,
        normalizer.n_transformed,
        normalizer.n_clipped,
        clone.transform(probe),
    )


NORMALIZER_KINDS = tuple(KINDS) + ("none",)


class TestNormalizerKernels:
    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    @given(xs=rows)
    @settings(max_examples=40, deadline=None)
    def test_observe_many_matches_scalar(self, kind, xs):
        scalar = make_normalizer(kind, N_FEATURES)
        batch = make_normalizer(kind, N_FEATURES)
        for x in xs:
            scalar.observe(x)
        batch.observe_many(xs)
        assert _normalizer_state(scalar) == _normalizer_state(batch)

    @pytest.mark.parametrize("kind", NORMALIZER_KINDS)
    @given(warm=rows, xs=rows)
    @settings(max_examples=40, deadline=None)
    def test_observe_and_transform_many_matches_scalar(self, kind, warm, xs):
        scalar = make_normalizer(kind, N_FEATURES)
        scalar.observe_many(warm)
        batch = copy.deepcopy(scalar)
        expected = [scalar.observe_and_transform(x) for x in xs]
        assert batch.observe_and_transform_many(xs) == expected
        assert _normalizer_state(scalar) == _normalizer_state(batch)


def _model_for(name, n_classes=3):
    if name == "slr":
        return StreamingLogisticRegression(
            n_classes=n_classes, regularizer="l2"
        )
    if name == "ht":
        return HoeffdingTree(n_classes=n_classes, grace_period=5)
    return AdaptiveRandomForest(n_classes=n_classes, ensemble_size=3, seed=11)


class TestModelKernels:
    """learn_many/predict_proba_many ≡ scalar loops for SLR, HT, ARF."""

    @pytest.mark.parametrize("name", ["slr", "ht", "arf"])
    @given(xs=rows, ys=labels)
    @settings(max_examples=20, deadline=None)
    def test_learn_many_matches_learn_one(self, name, xs, ys):
        instances = [
            dataclasses.replace(inst, y=inst.y if inst.y is not None else 0)
            for inst in _instances(xs, ys)
        ]
        scalar = _model_for(name)
        batch = _model_for(name)
        for inst in instances:
            scalar.learn_one(inst)
        batch.learn_many(instances)
        assert pickle.dumps(scalar) == pickle.dumps(batch)

    @pytest.mark.parametrize("name", ["slr", "ht", "arf"])
    @given(xs=rows, ys=labels)
    @settings(max_examples=20, deadline=None)
    def test_predict_proba_many_matches_scalar(self, name, xs, ys):
        model = _model_for(name)
        train = [
            dataclasses.replace(inst, y=inst.y if inst.y is not None else 0)
            for inst in _instances(xs, ys)
        ]
        model.learn_many(train)
        probe = [tuple(x) for x in xs]
        expected = [model.predict_proba_one(x) for x in probe]
        assert model.predict_proba_many(probe) == expected

    @given(xs=rows, ys=labels)
    @settings(max_examples=20, deadline=None)
    def test_slr_learn_many_all_regularizers(self, xs, ys):
        instances = [
            dataclasses.replace(inst, y=inst.y if inst.y is not None else 1)
            for inst in _instances(xs, ys)
        ]
        for reg in ("zero", "l1", "l2"):
            scalar = StreamingLogisticRegression(
                n_classes=3, regularizer=reg, decay=0.002
            )
            batch = StreamingLogisticRegression(
                n_classes=3, regularizer=reg, decay=0.002
            )
            for inst in instances:
                scalar.learn_one(inst)
            batch.learn_many(instances)
            assert scalar.weights == batch.weights
            assert scalar.bias == batch.bias
            assert scalar.instances_seen == batch.instances_seen


def _split_tree(leaf_prediction):
    """A tree with several leaves over N_FEATURES features."""
    rng = random.Random(7)
    tree = HoeffdingTree(
        n_classes=3, grace_period=30, tie_threshold=0.2,
        leaf_prediction=leaf_prediction,
    )
    for _ in range(600):
        label = rng.randrange(3)
        tree.learn_one(
            Instance(
                x=tuple(rng.gauss(label * 2.0, 1.0) for _ in range(N_FEATURES)),
                y=label,
            )
        )
    assert tree.n_leaves >= 3
    return tree


class TestTreeBatchKernel:
    """HT's routed numpy ``predict_proba_many`` ≡ the scalar loop, with
    ``==``, in every leaf mode, on tuples and on a float64 matrix."""

    @pytest.mark.parametrize("leaf_prediction", ["mc", "nb", "nba"])
    @given(xs=rows)
    @settings(max_examples=25, deadline=None)
    def test_after_splits_on_tuples_and_on_a_matrix(self, leaf_prediction, xs):
        tree = _split_tree(leaf_prediction)
        # Probes near the training data (so NB leaves vote on unfloored
        # terms) plus whatever hypothesis sends, far out.
        rng = random.Random(len(xs))
        probe = [tuple(x) for x in xs] + [
            tuple(rng.gauss(2.0, 2.5) for _ in range(N_FEATURES))
            for _ in range(40)
        ]
        expected = [tree.predict_proba_one(x) for x in probe]
        assert tree.predict_proba_many(probe) == expected
        assert tree.predict_proba_many(np.asarray(probe)) == expected

    def test_arf_on_tuples_and_on_a_matrix(self):
        rng = random.Random(3)
        forest = AdaptiveRandomForest(
            n_classes=3, ensemble_size=3, seed=11, grace_period=30
        )
        for _ in range(400):
            label = rng.randrange(3)
            forest.learn_one(
                Instance(
                    x=tuple(rng.gauss(label * 2.0, 1.0) for _ in range(N_FEATURES)),
                    y=label,
                )
            )
        assert max(m.tree.n_leaves for m in forest.members) >= 2
        probe = [
            tuple(rng.gauss(2.0, 2.5) for _ in range(N_FEATURES))
            for _ in range(60)
        ]
        expected = [forest.predict_proba_one(x) for x in probe]
        assert forest.predict_proba_many(probe) == expected
        assert forest.predict_proba_many(np.asarray(probe)) == expected

    def test_nan_and_inf_route_and_vote_like_the_scalar_loop(self):
        tree = _split_tree("nb")
        nan, inf = float("nan"), float("inf")
        probe = [
            (nan,) * N_FEATURES,
            (inf, -inf, nan, 0.0, 1e200),
            (-inf,) * N_FEATURES,
            (0.0, nan, 2.0, inf, 1.0),
        ]
        expected = [tree.predict_proba_one(x) for x in probe]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert tree.predict_proba_many(probe) == expected

    @pytest.mark.parametrize("leaf_prediction", ["mc", "nb", "nba"])
    def test_ragged_empty_and_wrong_width_take_the_scalar_path(
        self, leaf_prediction
    ):
        tree = _split_tree(leaf_prediction)
        assert tree.predict_proba_many([]) == []
        assert tree.predict_proba_many(np.empty((0, N_FEATURES))) == []
        good = (0.5,) * N_FEATURES
        # Wider rows: routed by the features they do have, then the
        # silent majority-class fallback at the leaf — today's answer.
        wide = [good + (1.0,), good + (2.0,)]
        expected = [tree.predict_proba_one(x) for x in wide]
        assert tree.predict_proba_many(wide) == expected
        assert tree.predict_proba_many(np.asarray(wide)) == expected
        leaf = tree._sort_to_leaf(wide[0])
        assert expected[0] == tree._normalize(leaf.majority_votes())
        # Narrower and ragged rows: today's per-row IndexError.
        with pytest.raises(IndexError, match="tuple index out of range"):
            tree.predict_proba_many([(0.5,), (0.5,)])
        with pytest.raises(IndexError, match="tuple index out of range"):
            tree.predict_proba_many([good, (0.5,)])

    def test_untrained_tree_and_unsplit_tree(self):
        probe = [(0.5,) * N_FEATURES, (1.5,) * N_FEATURES]
        fresh = HoeffdingTree(n_classes=3)
        assert fresh.predict_proba_many(probe) == [(1 / 3,) * 3] * 2
        fresh.learn_one(Instance(x=probe[0], y=1))
        expected = [fresh.predict_proba_one(x) for x in probe]
        assert fresh.predict_proba_many(np.asarray(probe)) == expected

    def test_columnar_is_the_dispatch_attribute(self):
        # Plain class attributes: no instance state selects a kernel.
        assert Normalizer.columnar is False
        assert StreamClassifier.columnar is False
        assert MinMaxNoOutliersNormalizer.columnar is True
        assert HoeffdingTree.columnar is True
        for kind in ("minmax", "zscore", "none"):
            assert make_normalizer(kind, 3).columnar is False
        assert AdaptiveRandomForest(n_classes=2, ensemble_size=2).columnar is False
        assert StreamingLogisticRegression(n_classes=2).columnar is False


class TestInstanceBlock:
    @given(xs=rows, ys=labels)
    @settings(max_examples=30, deadline=None)
    def test_columns_parallel_to_instances(self, xs, ys):
        instances = _instances(xs, ys)
        block = InstanceBlock(
            [inst.x for inst in instances],
            [inst.y for inst in instances],
            [inst.timestamp for inst in instances],
            [inst.tweet_id for inst in instances],
        )
        assert len(block) == len(instances)
        assert block.failure is None
        matrix = block.matrix()
        if instances:
            assert matrix.tolist() == [list(x) for x in block.xs]
            assert block.rows_for(True) is matrix
        else:
            assert matrix is None and block.rows_for(True) == []
        assert block.rows_for(False) is block.xs


class TestFusedExtractionAcrossTiers:
    """The fused one-pass analyzer must impute exactly the tier-skipped
    features and agree with the FULL tier on everything else."""

    @pytest.fixture(scope="class")
    def stream(self):
        return AbusiveDatasetGenerator(n_tweets=120, seed=31).generate_list()

    @pytest.mark.parametrize(
        "tier", [DegradeTier.FULL, DegradeTier.NO_POS, DegradeTier.TEXT_ONLY]
    )
    @pytest.mark.parametrize("preprocessing", [True, False])
    def test_tiers_differ_only_in_imputed_features(
        self, stream, tier, preprocessing
    ):
        from repro.core.features import (
            FEATURE_NAMES,
            TIER_IMPUTED_VALUE,
            TIER_SKIPPED_FEATURES,
        )

        full = FeatureExtractor(
            LabelEncoder(3),
            preprocessing=preprocessing,
            bag_of_words=FixedBagOfWords(),
        )
        tiered = FeatureExtractor(
            LabelEncoder(3),
            preprocessing=preprocessing,
            bag_of_words=FixedBagOfWords(),
            tier=tier,
        )
        skipped = TIER_SKIPPED_FEATURES[tier]
        for tweet in stream:
            a = full.extract(tweet, update_bow=False)
            b = tiered.extract(tweet, update_bow=False)
            for name, va, vb in zip(FEATURE_NAMES, a.x, b.x):
                if name in skipped:
                    assert vb == TIER_IMPUTED_VALUE
                else:
                    assert va == vb

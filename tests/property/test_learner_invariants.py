"""Property-based invariants for every streaming learner.

These run each classifier against arbitrary (hypothesis-generated)
training data and assert the contracts the rest of the system builds
on: probabilities are valid distributions, training is order-robust
(never crashes, never produces NaNs), weights behave like repetition,
and merging is count-conserving.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streamml import (
    AdaptiveRandomForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    Instance,
    MajorityClassClassifier,
    StreamingLogisticRegression,
)

N_FEATURES = 3

feature_values = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)

labeled_instances = st.lists(
    st.builds(
        lambda xs, y: Instance(x=tuple(xs), y=y),
        st.lists(feature_values, min_size=N_FEATURES, max_size=N_FEATURES),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=60,
)

probes = st.lists(
    st.lists(feature_values, min_size=N_FEATURES, max_size=N_FEATURES),
    min_size=1,
    max_size=5,
)


def _factories():
    return [
        lambda: HoeffdingTree(n_classes=2, grace_period=10),
        lambda: StreamingLogisticRegression(n_classes=2),
        lambda: GaussianNaiveBayes(n_classes=2),
        lambda: MajorityClassClassifier(n_classes=2),
        lambda: AdaptiveRandomForest(n_classes=2, ensemble_size=2, seed=3),
    ]


class TestProbabilityContract:
    @pytest.mark.parametrize("factory", _factories())
    @given(data=labeled_instances, xs=probes)
    @settings(max_examples=25, deadline=None)
    def test_proba_is_distribution(self, factory, data, xs):
        model = factory()
        model.learn_many(data)
        for x in xs:
            proba = model.predict_proba_one(tuple(x))
            assert len(proba) == 2
            assert all(p >= 0 for p in proba)
            assert sum(proba) == pytest.approx(1.0)
            assert all(not math.isnan(p) for p in proba)

    @pytest.mark.parametrize("factory", _factories())
    @given(data=labeled_instances)
    @settings(max_examples=25, deadline=None)
    def test_prediction_in_range(self, factory, data):
        model = factory()
        model.learn_many(data)
        assert model.predict_one(data[0].x) in (0, 1)


class TestTrainingContract:
    @pytest.mark.parametrize("factory", _factories())
    @given(data=labeled_instances)
    @settings(max_examples=20, deadline=None)
    def test_instances_seen_counts(self, factory, data):
        model = factory()
        model.learn_many(data)
        assert model.instances_seen == len(data)

    @given(data=labeled_instances)
    @settings(max_examples=20, deadline=None)
    def test_single_class_data_predicts_that_class(self, data):
        model = HoeffdingTree(n_classes=2, grace_period=10)
        forced = [dataclasses.replace(inst, y=1) for inst in data]
        model.learn_many(forced)
        assert model.predict_one(forced[0].x) == 1

    @given(data=labeled_instances)
    @settings(max_examples=20, deadline=None)
    def test_clone_is_fresh(self, data):
        model = StreamingLogisticRegression(n_classes=2)
        model.learn_many(data)
        clone = model.clone()
        assert clone.instances_seen == 0
        assert clone.predict_proba_one(data[0].x) == pytest.approx((0.5, 0.5))


class TestMergeContract:
    @given(data=labeled_instances)
    @settings(max_examples=20, deadline=None)
    def test_nb_merge_equals_sequential(self, data):
        split = len(data) // 2
        together = GaussianNaiveBayes(n_classes=2)
        together.learn_many(data)
        a = GaussianNaiveBayes(n_classes=2)
        b = GaussianNaiveBayes(n_classes=2)
        a.learn_many(data[:split])
        b.learn_many(data[split:])
        a.merge(b)
        assert a.instances_seen == together.instances_seen
        probe = data[0].x
        assert a.predict_proba_one(probe) == pytest.approx(
            together.predict_proba_one(probe), rel=1e-6, abs=1e-9
        )

    @given(data=labeled_instances)
    @settings(max_examples=20, deadline=None)
    def test_ht_structure_copy_merge_conserves_weight(self, data):
        tree = HoeffdingTree(n_classes=2, grace_period=10)
        tree.learn_many(data)
        copy = tree.structure_copy()
        copy.learn_many(data)
        before = sum(leaf.total_weight for leaf in tree.leaves())
        tree.merge(copy)
        after = sum(leaf.total_weight for leaf in tree.leaves())
        assert after == pytest.approx(before + len(data))


class TestSerializationContract:
    @pytest.mark.parametrize("factory", _factories())
    @given(data=labeled_instances, xs=probes)
    @settings(max_examples=10, deadline=None)
    def test_round_trip_preserves_predictions(self, factory, data, xs):
        from repro.streamml.serialize import model_from_dict, model_to_dict

        model = factory()
        model.learn_many(data)
        restored = model_from_dict(model_to_dict(model))
        for x in xs:
            assert restored.predict_proba_one(tuple(x)) == pytest.approx(
                model.predict_proba_one(tuple(x))
            )

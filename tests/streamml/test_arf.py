"""Tests for the Adaptive Random Forest."""

from __future__ import annotations

import random

import pytest

from repro.streamml.arf import AdaptiveRandomForest
from repro.streamml.instance import Instance


def _stream(n, rng, mean=2.0, flip=False):
    for _ in range(n):
        label = rng.random() < 0.5
        effective = (not label) if flip else label
        yield Instance(
            x=(
                rng.gauss(mean if effective else 0.0, 1.0),
                rng.gauss(0.0, 1.0),
                rng.gauss(0.0, 2.0),
            ),
            y=int(label),
        )


class TestConstruction:
    def test_invalid_ensemble_size(self):
        with pytest.raises(ValueError):
            AdaptiveRandomForest(n_classes=2, ensemble_size=0)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            AdaptiveRandomForest(n_classes=2, lambda_poisson=0.0)

    def test_member_count(self):
        forest = AdaptiveRandomForest(n_classes=2, ensemble_size=7)
        assert len(forest.members) == 7


class TestLearning:
    def test_learns_gaussians(self):
        rng = random.Random(0)
        forest = AdaptiveRandomForest(n_classes=2, ensemble_size=5, seed=1)
        forest.learn_many(list(_stream(3000, rng)))
        correct = sum(
            forest.predict_one(i.x) == i.y for i in _stream(600, rng)
        )
        assert correct / 600 > 0.78

    def test_subspace_resolved_from_features(self):
        rng = random.Random(1)
        forest = AdaptiveRandomForest(n_classes=2, ensemble_size=3)
        forest.learn_one(next(_stream(1, rng)))
        # ceil(sqrt(3)) == 2
        assert forest.members[0].tree.subspace_size == 2

    def test_diversity_across_members(self):
        rng = random.Random(2)
        forest = AdaptiveRandomForest(
            n_classes=2, ensemble_size=5, seed=3, grace_period=100
        )
        forest.learn_many(list(_stream(4000, rng, mean=4.0)))
        # Online bagging should give members different training weights,
        # hence (usually) different tree sizes or leaf statistics.
        sizes = [m.tree.instances_seen for m in forest.members]
        assert len(set(sizes)) > 1

    def test_determinism_with_seed(self):
        def run(seed):
            rng = random.Random(5)
            forest = AdaptiveRandomForest(n_classes=2, ensemble_size=3, seed=seed)
            forest.learn_many(list(_stream(1500, rng)))
            return [forest.predict_one((x / 10, 0.0, 0.0)) for x in range(20)]

        assert run(9) == run(9)

    def test_proba_normalized(self):
        rng = random.Random(3)
        forest = AdaptiveRandomForest(n_classes=3, ensemble_size=3)
        for _ in range(300):
            forest.learn_one(
                Instance(x=(rng.random(), rng.random(), 0.0), y=rng.randrange(3))
            )
        assert sum(forest.predict_proba_one((0.5, 0.5, 0.0))) == pytest.approx(1.0)


class TestDriftAdaptation:
    def test_recovers_from_abrupt_drift(self):
        rng = random.Random(4)
        forest = AdaptiveRandomForest(n_classes=2, ensemble_size=5, seed=7)
        forest.learn_many(list(_stream(4000, rng)))
        # Concept flips: feature-label relationship inverts.
        forest.learn_many(list(_stream(6000, rng, flip=True)))
        correct = sum(
            forest.predict_one(i.x) == i.y
            for i in _stream(800, rng, flip=True)
        )
        assert correct / 800 > 0.70
        assert sum(m.n_drifts + m.n_warnings for m in forest.members) >= 1

    def test_drift_detection_can_be_disabled(self):
        rng = random.Random(5)
        forest = AdaptiveRandomForest(
            n_classes=2, ensemble_size=3, disable_drift_detection=True
        )
        forest.learn_many(list(_stream(2000, rng)))
        forest.learn_many(list(_stream(2000, rng, flip=True)))
        assert sum(m.n_drifts for m in forest.members) == 0
        assert sum(m.n_warnings for m in forest.members) == 0


class TestMergeProtocol:
    def test_structure_copy_and_merge(self):
        rng = random.Random(6)
        forest = AdaptiveRandomForest(n_classes=2, ensemble_size=3, seed=11)
        forest.learn_many(list(_stream(1000, rng)))
        copy = forest.structure_copy()
        assert len(copy.members) == 3
        copy.learn_many(list(_stream(500, rng)))
        seen_before = forest.instances_seen
        forest.merge(copy)
        assert forest.instances_seen == seen_before + 500

    def test_merge_size_mismatch(self):
        a = AdaptiveRandomForest(n_classes=2, ensemble_size=3)
        b = AdaptiveRandomForest(n_classes=2, ensemble_size=4)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_wrong_type(self):
        from repro.streamml.slr import StreamingLogisticRegression

        forest = AdaptiveRandomForest(n_classes=2)
        with pytest.raises(TypeError):
            forest.merge(StreamingLogisticRegression(n_classes=2))

    def test_deferred_splits_after_merge(self):
        rng = random.Random(7)
        forest = AdaptiveRandomForest(
            n_classes=2, ensemble_size=3, seed=13, grace_period=100
        )
        copy = forest.structure_copy()
        copy.learn_many(list(_stream(3000, rng, mean=4.0)))
        forest.merge(copy)
        assert forest.attempt_deferred_splits() >= 1

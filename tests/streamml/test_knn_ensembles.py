"""Tests for streaming kNN and the Oza ensembles."""

from __future__ import annotations

import random

import pytest

from repro.streamml.ensembles import OzaBagging, OzaBoosting
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance
from repro.streamml.knn import KNNClassifier
from repro.streamml.majority import MajorityClassClassifier


def _stream(n, rng, sep=2.5):
    out = []
    for _ in range(n):
        label = rng.random() < 0.5
        out.append(Instance(
            x=(rng.gauss(sep if label else 0.0, 1.0), rng.gauss(0, 1)),
            y=int(label),
        ))
    return out


def _accuracy(model, instances):
    return sum(
        model.predict_one(i.x) == i.y for i in instances
    ) / len(instances)


class TestKNN:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KNNClassifier(n_classes=2, k=0)
        with pytest.raises(ValueError):
            KNNClassifier(n_classes=2, window_size=0)

    def test_uniform_before_training(self):
        model = KNNClassifier(n_classes=3)
        assert model.predict_proba_one((0.0,)) == pytest.approx((1 / 3,) * 3)

    def test_learns_gaussians(self):
        rng = random.Random(0)
        model = KNNClassifier(n_classes=2, k=7, window_size=500)
        model.learn_many(_stream(1500, rng))
        assert _accuracy(model, _stream(300, rng)) > 0.85

    def test_window_bounded(self):
        model = KNNClassifier(n_classes=2, window_size=100)
        rng = random.Random(1)
        model.learn_many(_stream(500, rng))
        assert len(model._window) == 100

    def test_forgets_old_concept(self):
        rng = random.Random(2)
        model = KNNClassifier(n_classes=2, k=5, window_size=300)
        model.learn_many(_stream(500, rng))
        # Concept flip: new data with inverted labels.
        flipped = [
            Instance(x=i.x, y=1 - i.y) for i in _stream(600, rng)
        ]
        model.learn_many(flipped)
        test = [Instance(x=i.x, y=1 - i.y) for i in _stream(200, rng)]
        # Window now holds only the new concept.
        assert _accuracy(model, test) > 0.8

    def test_unweighted_vote(self):
        model = KNNClassifier(n_classes=2, k=3, weighted=False)
        model.learn_one(Instance(x=(0.0, 0.0), y=0))
        model.learn_one(Instance(x=(0.1, 0.0), y=0))
        model.learn_one(Instance(x=(5.0, 0.0), y=1))
        assert model.predict_one((0.05, 0.0)) == 0

    def test_merge_unions_windows(self):
        a = KNNClassifier(n_classes=2, window_size=10)
        b = KNNClassifier(n_classes=2, window_size=10)
        a.learn_one(Instance(x=(0.0,), y=0))
        b.learn_one(Instance(x=(1.0,), y=1))
        a.merge(b)
        assert len(a._window) == 2
        assert a.instances_seen == 2


class TestOzaBagging:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            OzaBagging(n_classes=2, ensemble_size=0)
        with pytest.raises(ValueError):
            OzaBagging(n_classes=2, lambda_poisson=0.0)

    def test_learns(self):
        rng = random.Random(3)
        model = OzaBagging(n_classes=2, ensemble_size=5, seed=7)
        model.learn_many(_stream(2000, rng))
        assert _accuracy(model, _stream(400, rng)) > 0.8

    def test_members_diverge(self):
        rng = random.Random(4)
        model = OzaBagging(n_classes=2, ensemble_size=5, seed=7)
        model.learn_many(_stream(1000, rng))
        seen = {m.instances_seen for m in model.members}
        assert len(seen) > 1  # Poisson weighting differs per member

    def test_custom_base(self):
        model = OzaBagging(
            n_classes=2,
            ensemble_size=3,
            base_factory=lambda: MajorityClassClassifier(2),
        )
        model.learn_one(Instance(x=(0.0,), y=1))
        assert model.predict_one((0.0,)) == 1

    def test_merge(self):
        rng = random.Random(5)
        a = OzaBagging(n_classes=2, ensemble_size=3, seed=1,
                       base_factory=lambda: MajorityClassClassifier(2))
        b = OzaBagging(n_classes=2, ensemble_size=3, seed=2,
                       base_factory=lambda: MajorityClassClassifier(2))
        a.learn_many(_stream(50, rng))
        b.learn_many(_stream(50, rng))
        a.merge(b)
        assert a.instances_seen == 100


class TestOzaBoosting:
    def test_learns(self):
        rng = random.Random(6)
        model = OzaBoosting(n_classes=2, ensemble_size=5, seed=9)
        model.learn_many(_stream(2000, rng))
        assert _accuracy(model, _stream(400, rng)) > 0.8

    def test_boosting_beats_single_stump_on_diagonal_boundary(self):
        # A depth-1 stump can only cut axis-aligned; boosting composes
        # stumps into a better approximation of a diagonal boundary.
        def stump():
            return HoeffdingTree(n_classes=2, max_depth=1, grace_period=50)

        def diagonal(n, rng):
            out = []
            for _ in range(n):
                x = (rng.gauss(0, 1), rng.gauss(0, 1))
                out.append(Instance(x=x, y=int(x[0] + x[1] > 0)))
            return out

        rng = random.Random(7)
        train = diagonal(4000, rng)
        test = diagonal(800, rng)
        single = stump()
        single.learn_many(train)
        boosted = OzaBoosting(
            n_classes=2, ensemble_size=8, base_factory=stump, seed=11
        )
        boosted.learn_many(train)
        assert _accuracy(boosted, test) >= _accuracy(single, test)

    def test_member_weights_reflect_errors(self):
        rng = random.Random(8)
        model = OzaBoosting(n_classes=2, ensemble_size=3, seed=13)
        model.learn_many(_stream(1500, rng))
        weights = [model._member_weight(i) for i in range(3)]
        assert all(w >= 0 for w in weights)
        assert any(w > 0 for w in weights)

    def test_merge_sums_accumulators(self):
        rng = random.Random(9)
        a = OzaBoosting(n_classes=2, ensemble_size=2, seed=1,
                        base_factory=lambda: MajorityClassClassifier(2))
        b = OzaBoosting(n_classes=2, ensemble_size=2, seed=2,
                        base_factory=lambda: MajorityClassClassifier(2))
        a.learn_many(_stream(40, rng))
        b.learn_many(_stream(40, rng))
        total_before = a._correct_weight[0] + b._correct_weight[0]
        a.merge(b)
        assert a._correct_weight[0] == pytest.approx(total_before)

"""Tests for the SEA generator and the drift wrapper."""

from __future__ import annotations

import itertools

import pytest

from repro.streamml import HoeffdingTree
from repro.streamml.generators import DriftStream, SEAGenerator


class TestSEAGenerator:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SEAGenerator(concept=4)
        with pytest.raises(ValueError):
            SEAGenerator(noise=1.0)

    def test_labels_match_threshold(self):
        for instance in SEAGenerator(concept=0).generate(500):
            assert instance.y == int(instance.x[0] + instance.x[1] <= 8.0)

    def test_noise_flips_labels(self):
        noisy = list(SEAGenerator(concept=1, noise=0.2, seed=3).generate(1000))
        flipped = sum(
            i.y != int(i.x[0] + i.x[1] <= 9.0) for i in noisy
        )
        assert 140 <= flipped <= 260  # ~20% of labels disagree with the rule

    def test_deterministic(self):
        a = [i.x for i in SEAGenerator(seed=9).generate(50)]
        b = [i.x for i in SEAGenerator(seed=9).generate(50)]
        assert a == b

    def test_infinite_stream(self):
        stream = SEAGenerator().generate(None)
        assert len(list(itertools.islice(stream, 25))) == 25

    def test_learnable(self):
        tree = HoeffdingTree(n_classes=2, grace_period=100)
        tree.learn_many(list(SEAGenerator(seed=4).generate(4000)))
        test = list(SEAGenerator(seed=5).generate(1000))
        accuracy = sum(
            tree.predict_one(i.x) == i.y for i in test
        ) / len(test)
        assert accuracy > 0.9


class TestDriftStream:
    def test_invalid_params(self):
        a, b = SEAGenerator(0), SEAGenerator(2)
        with pytest.raises(ValueError):
            DriftStream(a, b, position=-1)
        with pytest.raises(ValueError):
            DriftStream(a, b, position=10, width=0)

    def test_abrupt_switch(self):
        stream = DriftStream(
            SEAGenerator(concept=0, seed=1),
            SEAGenerator(concept=2, seed=2),
            position=500,
            width=1,
        )
        instances = list(stream.generate(1000))
        # Before the switch labels follow theta=8; after, theta=7.
        before_errors = sum(
            i.y != int(i.x[0] + i.x[1] <= 8.0) for i in instances[:450]
        )
        after_errors = sum(
            i.y != int(i.x[0] + i.x[1] <= 7.0) for i in instances[550:]
        )
        assert before_errors == 0
        assert after_errors == 0

    def test_gradual_blend(self):
        stream = DriftStream(
            SEAGenerator(concept=0, seed=1),
            SEAGenerator(concept=2, seed=2),
            position=2000,
            width=1000,
        )
        instances = list(stream.generate(4000))
        # In the transition zone, both concepts appear.
        middle = instances[1800:2200]
        old_consistent = sum(
            i.y == int(i.x[0] + i.x[1] <= 8.0) for i in middle
        )
        assert 0 < old_consistent < len(middle)

    def test_adwin_catches_sea_drift(self):
        from repro.streamml import Adwin

        stream = DriftStream(
            SEAGenerator(concept=0, seed=1),
            SEAGenerator(concept=2, seed=2),
            position=3000,
            width=1,
        )
        tree = HoeffdingTree(n_classes=2, grace_period=100)
        detector = Adwin(delta=0.002)
        detected_at = None
        for index, instance in enumerate(stream.generate(6000)):
            error = float(tree.predict_one(instance.x) != instance.y)
            tree.learn_one(instance)
            if index > 500 and detector.update(error) and detected_at is None:
                detected_at = index
        assert detected_at is not None
        assert detected_at >= 3000

"""Tests for the trivial baselines and shared base-class machinery."""

from __future__ import annotations

import pytest

from repro.streamml.instance import Instance
from repro.streamml.majority import MajorityClassClassifier, NoChangeClassifier


class TestMajorityClass:
    def test_predicts_most_frequent(self):
        model = MajorityClassClassifier(n_classes=3)
        for label in (0, 1, 1, 2, 1):
            model.learn_one(Instance(x=(0.0,), y=label))
        assert model.predict_one((99.0,)) == 1

    def test_uniform_when_empty(self):
        model = MajorityClassClassifier(n_classes=2)
        assert model.predict_proba_one((0.0,)) == pytest.approx((0.5, 0.5))

    def test_merge_adds_counts(self):
        a = MajorityClassClassifier(n_classes=2)
        b = MajorityClassClassifier(n_classes=2)
        a.learn_one(Instance(x=(0.0,), y=0))
        b.learn_one(Instance(x=(0.0,), y=1))
        b.learn_one(Instance(x=(0.0,), y=1))
        a.merge(b)
        assert a.predict_one((0.0,)) == 1
        assert a.instances_seen == 3

    def test_invalid_n_classes(self):
        with pytest.raises(ValueError):
            MajorityClassClassifier(n_classes=1)


class TestNoChange:
    def test_predicts_last_label(self):
        model = NoChangeClassifier(n_classes=3)
        model.learn_one(Instance(x=(0.0,), y=2))
        assert model.predict_one((0.0,)) == 2
        model.learn_one(Instance(x=(0.0,), y=0))
        assert model.predict_one((0.0,)) == 0

    def test_merge_takes_other_last(self):
        a = NoChangeClassifier(n_classes=2)
        b = NoChangeClassifier(n_classes=2)
        a.learn_one(Instance(x=(0.0,), y=0))
        b.learn_one(Instance(x=(0.0,), y=1))
        a.merge(b)
        assert a.predict_one((0.0,)) == 1

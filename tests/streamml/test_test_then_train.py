"""``test_then_train`` ≡ ``predict_proba_one`` then ``learn_one``.

The prequential step is one call so a model can share work between its
two halves (the Hoeffding tree sorts the row to its leaf once and casts
one naive-Bayes vote for both). The contract is bit-equality with the
two calls it replaces: the same probabilities row for row and the same
``model_state_digest``, checked for the tree under every leaf rule and
for every ``create_model`` kind.
"""

from __future__ import annotations

import pickle
import random
from typing import Iterator

import pytest

from repro.core.config import _CONSTRUCTORS, PipelineConfig, create_model
from repro.engine.replay import model_state_digest
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance
from repro.streamml.serialize import SerializationError


def _stream(n: int, seed: int, n_classes: int = 3) -> Iterator[Instance]:
    """Separable-ish classes with ties, repeats and uneven weights."""
    rng = random.Random(seed)
    for i in range(n):
        label = rng.randrange(n_classes)
        x = (
            rng.gauss(label * 1.5, 1.0),
            float(rng.randint(0, 3)),  # ties
            rng.choice((0.0, 0.0, rng.uniform(-1.0, 1.0))),
            label + rng.random() * 0.1 if i % 5 else 0.5,
        )
        yield Instance(x, label, rng.choice((1.0, 1.0, 0.5, 2.0)))


def _state(model) -> object:
    try:
        return model_state_digest(model)
    except SerializationError:  # the fields, but a member factory
        return pickle.dumps(
            {k: v for k, v in vars(model).items() if not callable(v)}
        )


def _assert_equivalent(fused, reference, n: int, seed: int) -> None:
    for index, instance in enumerate(_stream(n, seed, fused.n_classes)):
        expected = reference.predict_proba_one(instance.x)
        reference.learn_one(instance)
        assert fused.test_then_train(instance) == expected, index
        if index % 400 == 0:
            assert _state(fused) == _state(reference)
    assert _state(fused) == _state(reference)
    assert fused.instances_seen == reference.instances_seen == n


class TestHoeffdingTree:
    @pytest.mark.parametrize("leaf_prediction", ["nba", "nb", "mc"])
    def test_row_for_row_under_every_leaf_rule(self, leaf_prediction):
        def tree():
            return HoeffdingTree(
                n_classes=3, grace_period=30, tie_threshold=0.3,
                leaf_prediction=leaf_prediction,
            )

        fused, reference = tree(), tree()
        _assert_equivalent(fused, reference, 1600, seed=3)
        assert fused.n_leaves > 4  # fresh leaves were voted on and grown

    def test_deferred_splits_match_too(self):
        fused = HoeffdingTree(n_classes=3, grace_period=30, tie_threshold=0.3)
        reference = HoeffdingTree(n_classes=3, grace_period=30, tie_threshold=0.3)
        fused.defer_splits = reference.defer_splits = True
        _assert_equivalent(fused, reference, 600, seed=4)

    def test_errors_leave_the_same_state(self):
        fused = HoeffdingTree(n_classes=2, grace_period=20)
        reference = HoeffdingTree(n_classes=2, grace_period=20)
        for instance in _stream(100, seed=5, n_classes=2):
            fused.test_then_train(instance)
            reference.learn_one(instance)
        for bad in (Instance((1.0, 2.0, 3.0, 4.0)), Instance((1.0, 2.0, 3.0, 4.0), 7)):
            with pytest.raises(ValueError):
                fused.test_then_train(bad)
            with pytest.raises(ValueError):
                reference.learn_one(bad)
        wrong_width = Instance((1.0,), 0)
        reference.predict_proba_one(wrong_width.x)
        with pytest.raises(ValueError):
            fused.test_then_train(wrong_width)
        with pytest.raises(ValueError):
            reference.learn_one(wrong_width)
        assert model_state_digest(fused) == model_state_digest(reference)
        assert fused.instances_seen == reference.instances_seen


@pytest.mark.parametrize("kind", sorted(_CONSTRUCTORS))
def test_every_model_kind(kind):
    config = PipelineConfig(model=kind, n_classes=3, seed=9)
    fused, reference = create_model(config), create_model(config)
    _assert_equivalent(fused, reference, 500, seed=6)

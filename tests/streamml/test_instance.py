"""Tests for Instance and ClassifiedInstance."""

from __future__ import annotations

import dataclasses

import pytest

from repro.streamml.instance import (
    ClassifiedBlock,
    ClassifiedInstance,
    Instance,
)


class TestInstance:
    def test_coerces_to_tuple(self):
        instance = Instance(x=[1, 2, 3])
        assert instance.x == (1.0, 2.0, 3.0)
        assert isinstance(instance.x, tuple)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Instance(x=(1.0,), weight=-1.0)

    def test_labeled_flags(self):
        assert Instance(x=(0.0,), y=1).is_labeled
        assert not Instance(x=(0.0,)).is_labeled

    def test_n_features(self):
        assert Instance(x=(1.0, 2.0)).n_features == 2

    def test_with_weight(self):
        inst = Instance(x=(1.0,), y=0).with_weight(3.0)
        assert inst.weight == 3.0
        assert inst.y == 0

    def test_with_features(self):
        inst = Instance(x=(1.0, 2.0), y=1).with_features([9, 8])
        assert inst.x == (9.0, 8.0)
        assert inst.y == 1

    @pytest.mark.parametrize(
        "base",
        [
            Instance(x=(1.0, 2.0)),
            Instance(x=(1.0, 2.0), y=2, weight=0.5, timestamp=7.5, tweet_id="t9"),
            Instance(x=[3, 4], y=0, weight=0.0),
        ],
    )
    def test_copies_equal_dataclasses_replace_field_for_field(self, base):
        copies = [
            (base.with_weight(4.0), dataclasses.replace(base, weight=4.0)),
            (base.with_features((9.0, 8.0)), dataclasses.replace(base, x=(9.0, 8.0))),
            (base.with_features([9, 8]), dataclasses.replace(base, x=[9, 8])),
        ]
        for got, want in copies:
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert type(got) is Instance and got is not base
            assert isinstance(got.x, tuple)
            assert all(isinstance(v, float) for v in got.x)

    def test_with_features_adopts_a_tuple_as_is(self):
        x = (9.0, 8.0)
        assert Instance(x=(1.0, 2.0)).with_features(x).x is x

    def test_copies_still_validate(self):
        with pytest.raises(ValueError, match="non-negative"):
            Instance(x=(1.0,)).with_weight(-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(Instance(x=(1.0,)), weight=-1.0)


class TestClassifiedInstance:

    def test_confidence(self):
        inst = Instance(x=(0.0,))
        classified = ClassifiedInstance(inst, predicted=1, proba=(0.2, 0.8))
        assert classified.confidence == pytest.approx(0.8)

    def test_confidence_without_proba(self):
        inst = Instance(x=(0.0,))
        assert ClassifiedInstance(inst, predicted=0).confidence == 0.0


class TestClassifiedBlock:
    def test_rows_come_back_equal_and_typed_as_collected(self):
        rows = [
            ClassifiedInstance(
                Instance((0.1 * i, 1.0 / 3.0, -2.5e-7), None, 1.0,
                         1.5e9 + i, f"t{i}"),
                i % 3,
                (0.2, 1.0 / 3.0, 0.8 - 1.0 / 3.0),
            )
            for i in range(5)
        ]
        block = ClassifiedBlock(
            [r.instance.x for r in rows],
            [r.proba for r in rows],
            [r.predicted for r in rows],
            [r.instance.timestamp for r in rows],
            [r.instance.tweet_id for r in rows],
        )
        assert len(block.predicted) == 5
        for i, row in enumerate(rows):
            rebuilt = block.classified(i)
            assert rebuilt == row
            assert type(rebuilt.proba) is tuple
            assert {type(v) for v in rebuilt.proba + rebuilt.instance.x} == {
                float
            }

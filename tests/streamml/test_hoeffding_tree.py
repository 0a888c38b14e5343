"""Tests for the Hoeffding Tree."""

from __future__ import annotations

import math
import random

import pytest

from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance


def _gaussian_stream(n, rng, sep=2.0):
    for _ in range(n):
        label = rng.random() < 0.5
        yield Instance(
            x=(rng.gauss(sep if label else 0.0, 1.0), rng.gauss(0.0, 1.0)),
            y=int(label),
        )


def _accuracy(model, n, rng, sep=2.0):
    correct = 0
    for instance in _gaussian_stream(n, rng, sep):
        correct += model.predict_one(instance.x) == instance.y
    return correct / n


class TestConstruction:
    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            HoeffdingTree(n_classes=2, split_criterion="chi2")

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            HoeffdingTree(n_classes=2, split_confidence=0.0)

    def test_invalid_grace_period(self):
        with pytest.raises(ValueError):
            HoeffdingTree(n_classes=2, grace_period=0)

    def test_invalid_leaf_prediction(self):
        with pytest.raises(ValueError):
            HoeffdingTree(n_classes=2, leaf_prediction="knn")

    def test_starts_as_single_leaf(self):
        tree = HoeffdingTree(n_classes=2)
        assert tree.n_leaves == 1
        assert tree.n_split_nodes == 0


class TestLearning:
    def test_rejects_unlabeled(self):
        tree = HoeffdingTree(n_classes=2)
        with pytest.raises(ValueError):
            tree.learn_one(Instance(x=(1.0,)))

    def test_rejects_out_of_range_label(self):
        tree = HoeffdingTree(n_classes=2)
        with pytest.raises(ValueError):
            tree.learn_one(Instance(x=(1.0,), y=2))

    def test_rejects_feature_count_change(self):
        tree = HoeffdingTree(n_classes=2)
        tree.learn_one(Instance(x=(1.0, 2.0), y=0))
        with pytest.raises(ValueError):
            tree.learn_one(Instance(x=(1.0,), y=1))

    def test_learns_separable_gaussians(self):
        rng = random.Random(0)
        tree = HoeffdingTree(n_classes=2)
        tree.learn_many(list(_gaussian_stream(4000, rng)))
        accuracy = _accuracy(tree, 1000, rng)
        # Bayes-optimal is ~0.84 for separation 2.0.
        assert accuracy > 0.80

    def test_tree_grows_on_informative_data(self):
        rng = random.Random(1)
        tree = HoeffdingTree(n_classes=2, grace_period=100)
        tree.learn_many(list(_gaussian_stream(5000, rng, sep=4.0)))
        assert tree.n_split_nodes >= 1
        assert tree.n_leaves == tree.n_split_nodes + 1

    def test_uninformative_data_stays_leaf(self):
        rng = random.Random(2)
        # Disable the tie-threshold escape hatch: with random labels the
        # Hoeffding bound itself should block splitting.
        tree = HoeffdingTree(n_classes=2, tie_threshold=0.0)
        for _ in range(3000):
            tree.learn_one(
                Instance(x=(rng.random(),), y=int(rng.random() < 0.5))
            )
        assert tree.n_split_nodes == 0

    def test_max_depth_respected(self):
        rng = random.Random(3)
        tree = HoeffdingTree(n_classes=2, max_depth=2, grace_period=50,
                             tie_threshold=0.2)
        tree.learn_many(list(_gaussian_stream(8000, rng, sep=4.0)))
        assert max(leaf.depth for leaf in tree.leaves()) <= 2

    def test_prediction_before_training_is_uniform(self):
        tree = HoeffdingTree(n_classes=3)
        proba = tree.predict_proba_one((1.0, 2.0))
        assert proba == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_proba_sums_to_one(self):
        rng = random.Random(4)
        tree = HoeffdingTree(n_classes=2)
        tree.learn_many(list(_gaussian_stream(1000, rng)))
        proba = tree.predict_proba_one((0.5, 0.5))
        assert sum(proba) == pytest.approx(1.0)

    def test_three_class_learning(self):
        rng = random.Random(5)
        tree = HoeffdingTree(n_classes=3)
        for _ in range(6000):
            label = rng.randrange(3)
            tree.learn_one(
                Instance(x=(rng.gauss(label * 3.0, 1.0),), y=label)
            )
        correct = 0
        for _ in range(900):
            label = rng.randrange(3)
            correct += tree.predict_one((rng.gauss(label * 3.0, 1.0),)) == label
        assert correct / 900 > 0.80


class TestHoeffdingBound:
    def test_bound_decreases_with_n(self):
        tree = HoeffdingTree(n_classes=2)
        assert tree.hoeffding_bound(100) > tree.hoeffding_bound(1000)

    def test_bound_formula(self):
        tree = HoeffdingTree(n_classes=2, split_confidence=0.05)
        n = 400.0
        expected = math.sqrt(math.log(1 / 0.05) / (2 * n))
        assert tree.hoeffding_bound(n) == pytest.approx(expected)

    def test_bound_infinite_for_no_data(self):
        tree = HoeffdingTree(n_classes=2)
        assert tree.hoeffding_bound(0) == math.inf

    def test_gini_range_is_one(self):
        tree = HoeffdingTree(n_classes=3, split_criterion="gini",
                             split_confidence=0.05)
        n = 400.0
        expected = math.sqrt(math.log(1 / 0.05) / (2 * n))
        assert tree.hoeffding_bound(n) == pytest.approx(expected)


class TestLeafPrediction:
    def test_mc_vs_nb_modes(self):
        rng = random.Random(6)
        stream = list(_gaussian_stream(2000, rng, sep=3.0))
        for mode in ("mc", "nb", "nba"):
            tree = HoeffdingTree(n_classes=2, leaf_prediction=mode,
                                 grace_period=10 ** 9)  # never split
            tree.learn_many(stream)
            accuracy = _accuracy(tree, 500, random.Random(7), sep=3.0)
            if mode == "mc":
                # Majority class alone is ~50% on balanced data.
                assert accuracy < 0.65
            else:
                # NB leaves classify well without any splits.
                assert accuracy > 0.85


class TestMergeProtocol:
    def test_structure_copy_has_zeroed_stats(self):
        rng = random.Random(8)
        tree = HoeffdingTree(n_classes=2)
        tree.learn_many(list(_gaussian_stream(3000, rng, sep=4.0)))
        copy = tree.structure_copy()
        assert copy.n_leaves == tree.n_leaves
        assert copy.defer_splits
        assert all(leaf.total_weight == 0 for leaf in copy.leaves())

    def test_merge_partitioned_equals_combined_counts(self):
        rng = random.Random(9)
        stream = list(_gaussian_stream(2000, rng, sep=4.0))
        tree = HoeffdingTree(n_classes=2)
        # Grow some structure first.
        tree.learn_many(stream[:1000])
        part_a = tree.structure_copy()
        part_b = tree.structure_copy()
        part_a.learn_many(stream[1000:1500])
        part_b.learn_many(stream[1500:])
        before = sum(leaf.total_weight for leaf in tree.leaves())
        tree.merge(part_a)
        tree.merge(part_b)
        after = sum(leaf.total_weight for leaf in tree.leaves())
        assert after == pytest.approx(before + 1000)

    def test_merge_diverged_structures_raises(self):
        rng = random.Random(10)
        a = HoeffdingTree(n_classes=2, grace_period=100)
        b = HoeffdingTree(n_classes=2, grace_period=100)
        a.learn_many(list(_gaussian_stream(4000, rng, sep=4.0)))
        b.learn_many(list(_gaussian_stream(200, rng, sep=4.0)))
        if a.n_leaves != b.n_leaves:
            with pytest.raises(ValueError):
                a.merge(b)

    def test_deferred_splits_grow_tree(self):
        rng = random.Random(11)
        tree = HoeffdingTree(n_classes=2, grace_period=100)
        copy = tree.structure_copy()
        copy.learn_many(list(_gaussian_stream(3000, rng, sep=4.0)))
        assert copy.n_split_nodes == 0  # deferred
        tree.merge(copy)
        n_splits = tree.attempt_deferred_splits()
        assert n_splits >= 1
        assert tree.n_split_nodes >= 1

    def test_merge_wrong_type_raises(self):
        from repro.streamml.majority import MajorityClassClassifier

        tree = HoeffdingTree(n_classes=2)
        with pytest.raises(TypeError):
            tree.merge(MajorityClassClassifier(2))


class TestIntrospection:
    def test_describe_mentions_leaf(self):
        tree = HoeffdingTree(n_classes=2)
        assert "leaf" in tree.describe()

    def test_describe_shows_split(self):
        rng = random.Random(12)
        tree = HoeffdingTree(n_classes=2, grace_period=100)
        tree.learn_many(list(_gaussian_stream(5000, rng, sep=5.0)))
        assert "if x[" in tree.describe()

    def test_clone_is_untrained(self):
        rng = random.Random(13)
        tree = HoeffdingTree(n_classes=2, grace_period=77)
        tree.learn_many(list(_gaussian_stream(500, rng)))
        clone = tree.clone()
        assert clone.instances_seen == 0
        assert clone.grace_period == 77

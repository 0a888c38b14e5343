"""Contract of the flat Gaussian table behind tree leaves and GNB.

DESIGN.md §9 "Classifier kernel" states it; this file pins it:

* **votes** — the log-space kernel against a tests-only reference that
  is the formula the observer objects used (``sqrt`` / ``exp`` / ``log``
  per feature over plain ``(count, mean, m2)`` cells): within 1e-12
  relative for rows whose log-scores are O(50) — where real tweets live —
  and within 5e-15 of the log-score magnitude anywhere, labels equal;
* **hostile numerics** — NaN, ±inf, 1e200, ``|z| > 40``, zero variance,
  ``count`` 0 and 1, a class never seen, all-equal votes: same votes as
  the reference, all finite, scalar ``==`` batch, no numpy warning;
* **invalidation** — after every ``learn_one``, ``merge``, round trip,
  ``structure_copy``, split and ``attempt_deferred_splits`` a tree votes
  exactly like one rebuilt from its serialised payload;
* **statistics** — ``==`` one ``RunningStats`` per (class, feature) and
  one ``RunningMinMax`` per feature fed the same rows and merges;
* **threads** — six threads voting on one freshly deserialised tree at
  a 10 µs switch interval ``==`` serial;
* **pickle** — a pickled leaf carries no derived lists.
"""

from __future__ import annotations

import copy
import math
import pickle
import random
import sys
import threading
import warnings
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance
from repro.streamml.naive_bayes import GaussianNaiveBayes, GaussianTable
from repro.streamml.serialize import model_from_dict, model_to_dict
from repro.streamml.stats import RunningMinMax, RunningStats

SQRT_2PI = math.sqrt(2.0 * math.pi)
LOG_FLOOR = math.log(1e-300)

#: cells[label][feature] == (count, mean, m2)
Cells = List[List[Tuple[float, float, float]]]


def cells_of(table: GaussianTable) -> Cells:
    return [
        [(count, mean, m2) for mean, m2 in zip(means, m2s)]
        for count, means, m2s in zip(table.weights, table.means, table.m2s)
    ]


def table_of(cells: Cells) -> GaussianTable:
    table = GaussianTable(len(cells), len(cells[0]))
    for label, row in enumerate(cells):
        table.weights[label] = row[0][0]
        table.means[label] = [mean for _, mean, _ in row]
        table.m2s[label] = [m2 for _, _, m2 in row]
    return table


def reference_votes(
    cells: Cells, x: Sequence[float], class_counts: Sequence[float]
) -> Tuple[List[float], List[float]]:
    """The observer-object formula, plain loops. Returns the votes and,
    per class, the magnitude the log-score was summed from (what a
    rounding error of either form is relative to)."""
    total = sum(class_counts)
    n_classes = len(class_counts)
    log_scores = []
    magnitudes = []
    for label in range(n_classes):
        score = math.log((class_counts[label] + 1.0) / (total + n_classes))
        magnitude = abs(score)
        for (count, mean, m2), value in zip(cells[label], x):
            if count > 0:
                if count <= 1:
                    std = 1e-6
                else:
                    variance = m2 / count
                    if variance < 0.0:
                        variance = 0.0
                    std = math.sqrt(variance)
                    if std < 1e-6:
                        std = 1e-6
                z = (value - mean) / std
                pdf = math.exp(-0.5 * z * z) / (std * SQRT_2PI)
                score += math.log(pdf if pdf > 1e-300 else 1e-300)
                half_z2 = 0.5 * z * z
                magnitude += abs(math.log(std * SQRT_2PI)) + (
                    half_z2 if half_z2 < -LOG_FLOOR else -LOG_FLOOR
                )
        log_scores.append(score)
        magnitudes.append(magnitude)
    top = max(log_scores)
    return [math.exp(s - top) for s in log_scores], magnitudes


def assert_votes_match(
    got: Sequence[float], want: Sequence[float], magnitudes: Sequence[float]
) -> None:
    best = max(range(len(want)), key=want.__getitem__)
    runner_up = max(v for i, v in enumerate(want) if i != best)
    if runner_up < 1.0 - 1e-9:  # not a near-tie: the label is pinned
        assert max(range(len(got)), key=got.__getitem__) == best
    for label, (g, w) in enumerate(zip(got, want)):
        assert math.isfinite(g) and 0.0 <= g <= 1.0
        if w < 1e-290:  # underflowing either way
            assert g < 1e-280
            continue
        scale = magnitudes[label] + magnitudes[best]
        assert abs(math.log(g) - math.log(w)) <= 5e-15 * scale + 1e-15
        if scale <= 50.0:
            assert g == pytest.approx(w, rel=1e-12)


def batch_votes(table, xs, class_counts):
    block = np.asarray(xs, dtype=np.float64)
    work = np.empty((len(class_counts), table.n_features + 1, len(block)))
    return table.votes_many(block.T, class_counts, sum(class_counts), work)


# -- (a) votes vs the reference under hypothesis -----------------------------

N_FEATURES = 4
N_CLASSES = 3

cell = st.tuples(
    st.floats(min_value=-100.0, max_value=100.0),  # mean
    st.floats(min_value=0.0, max_value=50.0),  # std
)
class_weight = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(min_value=0.5, max_value=5000.0)
)
statistics = st.lists(
    st.tuples(
        class_weight, st.lists(cell, min_size=N_FEATURES, max_size=N_FEATURES)
    ),
    min_size=N_CLASSES,
    max_size=N_CLASSES,
)
probe_rows = st.lists(
    st.lists(
        st.floats(min_value=-300.0, max_value=300.0),
        min_size=N_FEATURES,
        max_size=N_FEATURES,
    ),
    min_size=1,
    max_size=8,
)
priors = st.lists(
    st.floats(min_value=0.0, max_value=1e4), min_size=N_CLASSES,
    max_size=N_CLASSES,
).filter(lambda counts: sum(counts) > 0)


def _cells(stats) -> Cells:
    return [
        [(count, mean, std * std * count) for mean, std in row]
        for count, row in stats
    ]


class TestVotesAgainstTheReference:
    @given(stats=statistics, xs=probe_rows, class_counts=priors)
    @settings(max_examples=300, deadline=None)
    def test_log_space_votes_match_the_observer_formula(
        self, stats, xs, class_counts
    ):
        cells = _cells(stats)
        table = table_of(cells)
        total = sum(class_counts)
        for x in xs:
            want, magnitudes = reference_votes(cells, x, class_counts)
            assert_votes_match(
                table.votes(x, class_counts, total), want, magnitudes
            )
        assert batch_votes(table, xs, class_counts) == [
            table.votes(x, class_counts, total) for x in xs
        ]

    def test_learned_statistics_on_realistic_rows_within_1e_12(self):
        rng = random.Random(18)
        table = GaussianTable(3, 17)
        counts = [0.0, 0.0, 0.0]
        centres = [[rng.random() for _ in range(17)] for _ in range(3)]

        def row(label):
            return tuple(
                min(1.0, max(0.0, rng.gauss(c, 0.15))) for c in centres[label]
            )

        for _ in range(1500):
            label = rng.choices((0, 1, 2), weights=(6, 3, 1))[0]
            table.update(row(label), label, 1.0)
            counts[label] += 1.0
        cells = cells_of(table)
        worst = 0.0
        for _ in range(500):
            x = row(rng.randrange(3))
            want, _ = reference_votes(cells, x, counts)
            got = table.votes(x, counts, sum(counts))
            assert got.index(max(got)) == want.index(max(want))
            for g, w in zip(got, want):
                if w > 1e-290:
                    worst = max(worst, abs(g - w) / w)
        assert worst <= 1e-12


# -- (b) hostile numerics -----------------------------------------------------

def _learned_table() -> Tuple[GaussianTable, List[float]]:
    """Class 0: ordinary spread; class 1: zero variance (all rows equal);
    class 2: seen once (count 1); class 3: never seen."""
    table = GaussianTable(4, 3)
    rng = random.Random(2)
    for _ in range(50):
        table.update((rng.gauss(0, 1), rng.gauss(5, 2), rng.random()), 0, 1.0)
        table.update((0.5, 0.5, 0.5), 1, 1.0)
    table.update((1.0, 2.0, 3.0), 2, 1.0)
    return table, [50.0, 50.0, 1.0, 0.0]


HOSTILE_ROWS = [
    (math.nan, 0.0, 0.0),
    (math.nan, math.nan, math.nan),
    (math.inf, 5.0, 0.5),
    (-math.inf, math.inf, 0.5),
    (1e200, -1e200, 0.5),
    (1e308, 1e308, 1e308),
    (45.0, 5.0, 0.5),  # |z| > 40 for class 0: the floor
    (0.5, 0.5, 0.5),  # dead centre of the zero-variance class
    (0.5 + 1e-5, 0.5, 0.5),  # 10 floored sigmas off it
    (1.0, 2.0, 3.0),
    (0.0, 0.0, 0.0),
]


class TestHostileNumerics:
    @pytest.mark.parametrize("x", HOSTILE_ROWS)
    def test_same_votes_as_the_reference_and_finite(self, x):
        table, counts = _learned_table()
        want, magnitudes = reference_votes(cells_of(table), x, counts)
        got = table.votes(x, counts, sum(counts))
        assert all(math.isfinite(v) for v in got)
        assert_votes_match(got, want, magnitudes)

    def test_batch_equals_scalar_on_every_hostile_row_without_warnings(self):
        table, counts = _learned_table()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = batch_votes(table, HOSTILE_ROWS, counts)
        assert got == [
            table.votes(x, counts, sum(counts)) for x in HOSTILE_ROWS
        ]

    def test_every_term_on_the_floor_is_exactly_the_reference(self):
        table, counts = _learned_table()
        for x in HOSTILE_ROWS[1:6]:
            want, _ = reference_votes(cells_of(table), x, counts)
            assert table.votes(x, counts, sum(counts))[:3] == want[:3]

    def test_all_equal_votes(self):
        table = GaussianTable(3, 2)
        for label in range(3):
            for x in ((0.0, 1.0), (2.0, 3.0)):
                table.update(x, label, 1.0)
        votes = table.votes((1.0, 2.0), [2.0, 2.0, 2.0], 6.0)
        assert votes == [1.0, 1.0, 1.0]
        assert batch_votes(table, [(1.0, 2.0)], [2.0, 2.0, 2.0]) == [votes]

    def test_hostile_statistics_do_not_raise(self):
        # inf/NaN rows poison mean and m2; every later vote must still
        # be finite and equal to the reference's.
        table = GaussianTable(2, 2)
        counts = [0.0, 0.0]
        for x in ((1.0, 2.0), (math.inf, 3.0), (2.0, math.nan), (1e200, -1e200)):
            table.update(x, 0, 1.0)
            counts[0] += 1.0
        table.update((1.0, 1.0), 1, 1.0)
        counts[1] += 1.0
        for x in ((1.0, 2.0), (math.inf, math.nan)):
            want, _ = reference_votes(cells_of(table), x, counts)
            got = table.votes(x, counts, sum(counts))
            assert got == want and all(math.isfinite(v) for v in got)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert batch_votes(table, [x], counts) == [got]


# -- (c) invalidation ---------------------------------------------------------

def _stream(n: int, seed: int, n_features: int = 3) -> List[Instance]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        label = rng.randrange(3)
        out.append(
            Instance(
                x=tuple(rng.gauss(label * 1.5, 1.0) for _ in range(n_features)),
                y=label,
            )
        )
    return out


def _assert_votes_like_a_rebuilt_tree(tree, probes) -> None:
    rebuilt = model_from_dict(model_to_dict(tree))
    assert [tree.predict_proba_one(x) for x in probes] == [
        rebuilt.predict_proba_one(x) for x in probes
    ]
    assert tree.predict_proba_many(probes) == rebuilt.predict_proba_many(probes)


class TestDerivedListsAreInvalidated:
    def _tree(self) -> HoeffdingTree:
        return HoeffdingTree(
            n_classes=3, leaf_prediction="nb", grace_period=40,
            tie_threshold=0.2,
        )

    def test_after_every_learn_one_and_split(self):
        tree = self._tree()
        probes = [i.x for i in _stream(12, seed=99)]
        splits_seen = 0
        for instance in _stream(400, seed=1):
            tree.predict_proba_many(probes)  # warm every derived list
            before = tree.n_split_nodes
            tree.learn_one(instance)
            splits_seen += tree.n_split_nodes - before
            _assert_votes_like_a_rebuilt_tree(tree, probes)
        assert splits_seen >= 2

    def test_after_round_trip_structure_copy_merge_and_deferred_splits(self):
        tree = self._tree()
        probes = [i.x for i in _stream(12, seed=98)]
        stream = _stream(900, seed=2)
        tree.learn_many(stream[:100])
        for start in range(100, 900, 200):
            tree.predict_proba_many(probes)
            round_tripped = model_from_dict(model_to_dict(tree))
            _assert_votes_like_a_rebuilt_tree(round_tripped, probes)
            locals_ = [tree.structure_copy(), tree.structure_copy()]
            for offset, local in enumerate(locals_):
                _assert_votes_like_a_rebuilt_tree(local, probes)
                local.learn_many(stream[start + offset : start + 200 : 2])
                _assert_votes_like_a_rebuilt_tree(local, probes)
            for local in locals_:
                tree.predict_proba_many(probes)
                tree.merge(local)
                _assert_votes_like_a_rebuilt_tree(tree, probes)
            tree.predict_proba_many(probes)
            tree.attempt_deferred_splits()
            _assert_votes_like_a_rebuilt_tree(tree, probes)
        assert tree.n_split_nodes >= 2

    def test_deepcopy_and_gnb_merge(self):
        model = GaussianNaiveBayes(n_classes=3)
        other = GaussianNaiveBayes(n_classes=3)
        model.learn_many(_stream(60, seed=3))
        other.learn_many(_stream(60, seed=4))
        probe = (0.3, 1.1, 2.0)
        model.predict_proba_one(probe)
        clone = copy.deepcopy(model)
        assert clone.predict_proba_one(probe) == model.predict_proba_one(probe)
        model.merge(other)
        rebuilt = model_from_dict(model_to_dict(model))
        assert model.predict_proba_one(probe) == rebuilt.predict_proba_one(probe)
        assert model.predict_proba_one(probe) != clone.predict_proba_one(probe)


# -- (d) statistics == RunningStats / RunningMinMax ---------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
weighted_rows = st.lists(
    st.tuples(
        st.lists(finite, min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0.0, 1.0, 1.0, 2.0, 0.5, 6.0]),
    ),
    max_size=40,
)


class _Observers:
    """What a leaf used to hold: a RunningStats per (feature, class) and
    a RunningMinMax per feature."""

    def __init__(self) -> None:
        self.stats = [[RunningStats() for _ in range(3)] for _ in range(3)]
        self.ranges = [RunningMinMax() for _ in range(3)]

    def update(self, x, label, weight) -> None:
        for feature, value in enumerate(x):
            self.stats[feature][label].update(value, weight)
            self.ranges[feature].update(value)

    def merge(self, other: "_Observers") -> None:
        self.stats = [
            [mine.merge(theirs) for mine, theirs in zip(row, other_row)]
            for row, other_row in zip(self.stats, other.stats)
        ]
        self.ranges = [
            mine.merge(theirs) for mine, theirs in zip(self.ranges, other.ranges)
        ]

    def assert_equal(self, table: GaussianTable) -> None:
        for feature in range(3):
            for label in range(3):
                stats = self.stats[feature][label]
                assert (stats.count, stats.mean, stats._m2) == (
                    table.weights[label],
                    table.means[label][feature],
                    table.m2s[label][feature],
                )
                assert stats.std == table.std(label, feature)
            ranges = self.ranges[feature]
            assert (ranges.count, ranges.min, ranges.max) == (
                table.n_ranged, table.lo[feature], table.hi[feature]
            )


class TestStatisticsAreRunningStats:
    @given(rows=weighted_rows)
    @settings(max_examples=100, deadline=None)
    def test_updates(self, rows):
        table, observers = GaussianTable(3, 3), _Observers()
        for x, label, weight in rows:
            table.update(tuple(x), label, weight)
            observers.update(x, label, weight)
        observers.assert_equal(table)

    @given(parts=st.lists(weighted_rows, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_merges(self, parts):
        table, observers = GaussianTable(3, 3), _Observers()
        for rows in parts:
            part_table, part_observers = GaussianTable(3, 3), _Observers()
            for x, label, weight in rows:
                part_table.update(tuple(x), label, weight)
                part_observers.update(x, label, weight)
            table.merge(part_table)
            observers.merge(part_observers)
            observers.assert_equal(table)


# -- (f) threads, (g) pickle --------------------------------------------------

class TestSharedReadOnlyTree:
    def test_six_threads_voting_on_one_fresh_tree_equal_serial(self):
        trained = HoeffdingTree(
            n_classes=3, leaf_prediction="nb", grace_period=40,
            tie_threshold=0.2,
        )
        trained.learn_many(_stream(600, seed=5))
        assert trained.n_leaves >= 3
        payload = model_to_dict(trained)
        probes = [i.x for i in _stream(300, seed=6)]
        expected = [trained.predict_proba_one(x) for x in probes]
        matrix = np.asarray(probes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                shared = model_from_dict(payload)  # nothing derived yet
                results: List[object] = [None] * 6
                barrier = threading.Barrier(6)

                def vote(slot: int) -> None:
                    barrier.wait(timeout=30)
                    if slot % 2:
                        results[slot] = shared.predict_proba_many(matrix)
                    else:
                        results[slot] = [
                            shared.predict_proba_one(x) for x in probes
                        ]

                threads = [
                    threading.Thread(target=vote, args=(slot,))
                    for slot in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert results == [expected] * 6
        finally:
            sys.setswitchinterval(interval)


class TestPickledLeafCarriesNoDerivedLists:
    def test_pickle_state_is_the_statistics_only(self):
        tree = HoeffdingTree(n_classes=3, leaf_prediction="nb")
        tree.learn_many(_stream(50, seed=7))
        probe = (0.1, 0.2, 0.3)
        cold = pickle.dumps(tree)
        expected = tree.predict_proba_one(probe)  # derives every class
        leaf = tree.leaves()[0]
        assert all(d is not None for d in leaf.table._derived)
        assert pickle.dumps(tree) == cold
        assert len(leaf.table.__getstate__()) == len(GaussianTable.__slots__) - 1
        thawed = pickle.loads(pickle.dumps(tree))
        assert thawed.leaves()[0].table._derived == [None, None, None]
        assert thawed.predict_proba_one(probe) == expected
        assert model_to_dict(thawed) == model_to_dict(tree)

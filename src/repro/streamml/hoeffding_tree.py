"""Hoeffding Tree (VFDT) for numeric data streams (Domingos & Hulten, 2000).

A Hoeffding Tree grows a decision tree incrementally: each leaf keeps
per-class Gaussian sufficient statistics per feature (one flat
:class:`~repro.streamml.naive_bayes.GaussianTable`), and is split as
soon as the Hoeffding bound guarantees (with confidence ``1 - delta``)
that the best split candidate truly beats the runner-up. Supported
hyperparameters mirror Table I of the paper:

* ``split_criterion`` — "infogain" or "gini";
* ``split_confidence`` — the delta of the Hoeffding bound;
* ``tie_threshold`` — split anyway when the bound falls below this;
* ``grace_period`` — instances a leaf accumulates between split attempts;
* ``max_depth`` — leaves at this depth are never split.

Leaves predict with an *adaptive* rule: each leaf tracks the prequential
accuracy of majority-class and naive-Bayes predictions on its own data
and answers with whichever is currently better (MOA's "NBAdaptive").

Distributed training (Fig. 2) uses the streamDM-on-Spark scheme: workers
receive a ``structure_copy`` of the global tree (same structure, zeroed
statistics, splits deferred), accumulate leaf statistics on their
partition, and the driver ``merge``s the copies back and then calls
``attempt_deferred_splits``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.streamml.base import StreamClassifier
from repro.streamml.instance import Instance, as_matrix
from repro.streamml.naive_bayes import GaussianTable

INFO_GAIN = "infogain"
GINI = "gini"
_CRITERIA = (INFO_GAIN, GINI)


def _entropy(counts: Sequence[float]) -> float:
    total = float(sum(counts))
    if total <= 0:
        return 0.0
    result = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            result -= p * math.log2(p)
    return result


def _gini(counts: Sequence[float]) -> float:
    total = float(sum(counts))
    if total <= 0:
        return 0.0
    return 1.0 - sum((count / total) ** 2 for count in counts)


def _normal_cdf(value: float, mean: float, std: float) -> float:
    if std <= 1e-9:
        return 1.0 if value >= mean else 0.0
    return 0.5 * (1.0 + math.erf((value - mean) / (std * math.sqrt(2.0))))


class SplitCandidate:
    """A scored binary numeric split (feature <= threshold)."""

    __slots__ = ("feature", "threshold", "merit", "left_counts", "right_counts")

    def __init__(
        self,
        feature: int,
        threshold: float,
        merit: float,
        left_counts: List[float],
        right_counts: List[float],
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.merit = merit
        self.left_counts = left_counts
        self.right_counts = right_counts


class _Node:
    """Base tree node."""

    __slots__ = ("node_id", "depth")

    def __init__(self, node_id: int, depth: int) -> None:
        self.node_id = node_id
        self.depth = depth


class _SplitNode(_Node):
    """Internal binary split on a numeric feature."""

    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(
        self,
        node_id: int,
        depth: int,
        feature: int,
        threshold: float,
        left: "_Node",
        right: "_Node",
    ) -> None:
        super().__init__(node_id, depth)
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right

    def route(self, x: Sequence[float]) -> "_Node":
        if x[self.feature] <= self.threshold:
            return self.left
        return self.right


class _LeafNode(_Node):
    """Learning leaf: class counts plus one flat Gaussian statistics table
    (``None`` until the leaf learns or merges its first row)."""

    __slots__ = (
        "class_counts",
        "table",
        "weight_at_last_attempt",
        "nb_correct",
        "mc_correct",
        "is_active",
    )

    def __init__(self, node_id: int, depth: int, n_classes: int) -> None:
        super().__init__(node_id, depth)
        self.class_counts: List[float] = [0.0] * n_classes
        self.table: Optional[GaussianTable] = None
        self.weight_at_last_attempt = 0.0
        self.nb_correct = 0.0
        self.mc_correct = 0.0
        self.is_active = True

    @property
    def total_weight(self) -> float:
        return sum(self.class_counts)

    def majority_votes(self) -> List[float]:
        return list(self.class_counts)

    def naive_bayes_weight(self, width: int) -> float:
        """Total class weight behind a naive-Bayes vote on a
        ``width``-feature row; 0 when the leaf has no statistics of that
        width and silently answers with the class counts instead."""
        table = self.table
        if table is None or table.n_features != width:
            return 0.0
        return sum(self.class_counts)

    def naive_bayes_votes(self, x: Sequence[float]) -> List[float]:
        total = self.naive_bayes_weight(len(x))
        if total <= 0:
            return self.majority_votes()
        return self.table.votes(x, self.class_counts, total)


class HoeffdingTree(StreamClassifier):
    """Incremental decision tree for evolving numeric data streams."""

    columnar = True  # predict_proba_many is one numpy kernel, no flag

    def __init__(
        self,
        n_classes: int,
        split_criterion: str = INFO_GAIN,
        split_confidence: float = 0.01,
        tie_threshold: float = 0.05,
        grace_period: int = 200,
        max_depth: int = 20,
        n_split_points: int = 10,
        leaf_prediction: str = "nba",
    ) -> None:
        super().__init__(n_classes)
        if split_criterion not in _CRITERIA:
            raise ValueError(
                f"split_criterion must be one of {_CRITERIA}, got {split_criterion!r}"
            )
        if not 0.0 < split_confidence < 1.0:
            raise ValueError("split_confidence must be in (0, 1)")
        if grace_period < 1:
            raise ValueError("grace_period must be >= 1")
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if leaf_prediction not in ("nba", "nb", "mc"):
            raise ValueError("leaf_prediction must be 'nba', 'nb', or 'mc'")
        self.split_criterion = split_criterion
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.grace_period = grace_period
        self.max_depth = max_depth
        self.n_split_points = n_split_points
        self.leaf_prediction = leaf_prediction
        self.defer_splits = False
        self._next_node_id = 0
        self._root: _Node = self._new_leaf(depth=0)
        self.n_leaves = 1
        self.n_split_nodes = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _new_leaf(self, depth: int) -> _LeafNode:
        leaf = _LeafNode(self._next_node_id, depth, self.n_classes)
        self._next_node_id += 1
        return leaf

    def clone(self) -> "HoeffdingTree":
        return HoeffdingTree(
            n_classes=self.n_classes,
            split_criterion=self.split_criterion,
            split_confidence=self.split_confidence,
            tie_threshold=self.tie_threshold,
            grace_period=self.grace_period,
            max_depth=self.max_depth,
            n_split_points=self.n_split_points,
            leaf_prediction=self.leaf_prediction,
        )

    # ------------------------------------------------------------------
    # Learning
    # ------------------------------------------------------------------

    def learn_one(self, instance: Instance) -> None:
        label = self._check_labeled(instance)
        self.instances_seen += 1
        x = instance.x
        self._learn_at(self._sort_to_leaf(x), x, label, instance.weight, None)

    def test_then_train(self, instance: Instance) -> Tuple[float, ...]:
        """One sort to the leaf and one naive-Bayes vote for both halves.

        The vote that answers the prediction is the one the leaf's
        adaptive counters score, when the leaf already holds statistics
        of the row's width; otherwise the learning half votes as
        :meth:`learn_one` does.
        """
        label = self._check_labeled(instance)
        self.instances_seen += 1
        x = instance.x
        leaf = self._sort_to_leaf(x)
        votes = None
        if self._answers_with_naive_bayes(leaf):
            total = leaf.naive_bayes_weight(len(x))
            if total > 0:
                votes = leaf.table.votes(x, leaf.class_counts, total)
        proba = self._normalize(
            leaf.majority_votes() if votes is None else votes
        )
        self._learn_at(leaf, x, label, instance.weight, votes)
        return proba

    def _learn_at(
        self,
        leaf: _LeafNode,
        x: Sequence[float],
        label: int,
        weight: float,
        nb_votes: Optional[List[float]],
    ) -> None:
        """Learn one row at its leaf. ``nb_votes`` is the leaf's
        naive-Bayes vote on ``x`` if the caller already has it."""
        table = leaf.table
        if table is None:
            table = leaf.table = GaussianTable(self.n_classes, len(x))
        elif table.n_features != len(x):
            raise ValueError(
                f"expected {table.n_features} features, got {len(x)}"
            )
        counts = leaf.class_counts
        if sum(counts) > 0:
            # The adaptive counters: would each rule have been right?
            if counts.index(max(counts)) == label:
                leaf.mc_correct += weight
            if nb_votes is None:
                nb_votes = leaf.naive_bayes_votes(x)
            if nb_votes.index(max(nb_votes)) == label:
                leaf.nb_correct += weight
        counts[label] += weight
        table.update(x, label, weight)
        if self.defer_splits or not leaf.is_active:
            return
        if leaf.depth >= self.max_depth:
            leaf.is_active = False
            return
        total = leaf.total_weight
        if total - leaf.weight_at_last_attempt >= self.grace_period:
            leaf.weight_at_last_attempt = total
            self._attempt_split(leaf)

    def _sort_to_leaf(self, x: Sequence[float]) -> _LeafNode:
        node = self._root
        while isinstance(node, _SplitNode):
            node = node.route(x)
        assert isinstance(node, _LeafNode)
        return node

    # ------------------------------------------------------------------
    # Split machinery
    # ------------------------------------------------------------------

    def _criterion_value(self, counts: Sequence[float]) -> float:
        if self.split_criterion == INFO_GAIN:
            return _entropy(counts)
        return _gini(counts)

    def _criterion_range(self) -> float:
        if self.split_criterion == INFO_GAIN:
            return math.log2(self.n_classes) if self.n_classes > 2 else 1.0
        return 1.0

    def hoeffding_bound(self, n: float) -> float:
        """Hoeffding bound epsilon for ``n`` observations."""
        if n <= 0:
            return math.inf
        r = self._criterion_range()
        return math.sqrt(
            (r * r * math.log(1.0 / self.split_confidence)) / (2.0 * n)
        )

    def _candidate_splits(self, leaf: _LeafNode) -> List[SplitCandidate]:
        candidates: List[SplitCandidate] = []
        parent_impurity = self._criterion_value(leaf.class_counts)
        total = leaf.total_weight
        if total <= 0:
            return candidates
        table = leaf.table
        if table is None or table.n_ranged == 0:
            return candidates
        labels = range(self.n_classes)
        for feature, (lo, hi) in enumerate(zip(table.lo, table.hi)):
            if hi - lo <= 0:
                continue
            step = (hi - lo) / (self.n_split_points + 1)
            means = [table.means[label][feature] for label in labels]
            stds = [table.std(label, feature) for label in labels]
            for point in range(1, self.n_split_points + 1):
                threshold = lo + step * point
                left_counts: List[float] = []
                right_counts: List[float] = []
                for count, mean, std in zip(table.weights, means, stds):
                    if count <= 0:
                        left_counts.append(0.0)
                        right_counts.append(0.0)
                        continue
                    frac_left = _normal_cdf(threshold, mean, std)
                    left_counts.append(count * frac_left)
                    right_counts.append(count * (1.0 - frac_left))
                left_total = sum(left_counts)
                right_total = sum(right_counts)
                if left_total <= 0 or right_total <= 0:
                    continue
                child_impurity = (
                    left_total / total * self._criterion_value(left_counts)
                    + right_total / total * self._criterion_value(right_counts)
                )
                merit = parent_impurity - child_impurity
                candidates.append(
                    SplitCandidate(feature, threshold, merit, left_counts, right_counts)
                )
        return candidates

    def _attempt_split(self, leaf: _LeafNode) -> bool:
        if len(set(i for i, c in enumerate(leaf.class_counts) if c > 0)) < 2:
            return False
        candidates = self._candidate_splits(leaf)
        if not candidates:
            return False
        candidates.sort(key=lambda c: c.merit, reverse=True)
        best = candidates[0]
        second_merit = candidates[1].merit if len(candidates) > 1 else 0.0
        epsilon = self.hoeffding_bound(leaf.total_weight)
        should_split = (
            best.merit - second_merit > epsilon or epsilon < self.tie_threshold
        )
        if not should_split or best.merit <= 0:
            return False
        self._split_leaf(leaf, best)
        return True

    def _split_leaf(self, leaf: _LeafNode, candidate: SplitCandidate) -> None:
        left = self._new_leaf(depth=leaf.depth + 1)
        right = self._new_leaf(depth=leaf.depth + 1)
        left.class_counts = list(candidate.left_counts)
        right.class_counts = list(candidate.right_counts)
        split = _SplitNode(
            node_id=leaf.node_id,
            depth=leaf.depth,
            feature=candidate.feature,
            threshold=candidate.threshold,
            left=left,
            right=right,
        )
        self._replace_node(self._root, None, leaf, split)
        self.n_leaves += 1
        self.n_split_nodes += 1

    def _replace_node(
        self,
        node: _Node,
        parent: Optional[_SplitNode],
        target: _LeafNode,
        replacement: _Node,
    ) -> bool:
        if node is target:
            if parent is None:
                self._root = replacement
            elif parent.left is target:
                parent.left = replacement
            else:
                parent.right = replacement
            return True
        if isinstance(node, _SplitNode):
            return self._replace_node(
                node.left, node, target, replacement
            ) or self._replace_node(node.right, node, target, replacement)
        return False

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def _answers_with_naive_bayes(self, leaf: _LeafNode) -> bool:
        if self.leaf_prediction == "nba":
            # whichever rule has been more accurate at this leaf
            return leaf.nb_correct >= leaf.mc_correct
        return self.leaf_prediction == "nb"

    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        leaf = self._sort_to_leaf(x)
        if self._answers_with_naive_bayes(leaf):
            return self._normalize(leaf.naive_bayes_votes(x))
        return self._normalize(leaf.majority_votes())

    def predict_proba_many(
        self, xs: Sequence[Sequence[float]]
    ) -> List[Tuple[float, ...]]:
        """Routed batch kernel, ``==`` the scalar loop row for row.

        One boolean mask per split node sorts the block's rows to their
        leaves; a leaf that answers with naive Bayes votes on its rows
        in one vectorised pass (:meth:`GaussianTable.votes_many`), a
        leaf that answers with its class counts broadcasts one tuple.
        A ragged, empty or wrong-width batch takes the scalar loop, so
        per-row errors and the width-mismatch fallback are unchanged.
        """
        matrix = as_matrix(xs)
        width = next(
            (
                leaf.table.n_features
                for leaf in self.leaves()
                if leaf.table is not None
            ),
            None,
        )
        if matrix is None or matrix.shape[1] != width:
            return super().predict_proba_many(xs)
        normalize = self._normalize
        out: List[Tuple[float, ...]] = [()] * len(matrix)
        work = np.empty((self.n_classes, width + 1, len(matrix)))
        pending = [(self._root, np.arange(len(matrix)))]
        while pending:
            node, rows = pending.pop()
            if isinstance(node, _SplitNode):
                goes_left = matrix[rows, node.feature] <= node.threshold
                pending.append((node.right, rows[~goes_left]))
                pending.append((node.left, rows[goes_left]))
                continue
            assert isinstance(node, _LeafNode)
            total = 0.0
            if len(rows) and self._answers_with_naive_bayes(node):
                total = node.naive_bayes_weight(width)
            if total > 0:
                for row, votes in zip(
                    rows.tolist(),
                    node.table.votes_many(
                        matrix[rows].T, node.class_counts, total, work
                    ),
                ):
                    out[row] = normalize(votes)
            else:
                proba = normalize(node.majority_votes())
                for row in rows.tolist():
                    out[row] = proba
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def leaves(self) -> List[_LeafNode]:
        """All leaf nodes, left to right."""
        result: List[_LeafNode] = []

        def collect(node: _Node) -> None:
            if isinstance(node, _SplitNode):
                collect(node.left)
                collect(node.right)
            else:
                assert isinstance(node, _LeafNode)
                result.append(node)

        collect(self._root)
        return result

    def describe(self) -> str:
        """Human-readable tree dump, for debugging and examples."""
        lines: List[str] = []

        def walk(node: _Node, indent: int) -> None:
            prefix = "  " * indent
            if isinstance(node, _SplitNode):
                lines.append(
                    f"{prefix}if x[{node.feature}] <= {node.threshold:.4f}:"
                )
                walk(node.left, indent + 1)
                lines.append(f"{prefix}else:")
                walk(node.right, indent + 1)
            else:
                assert isinstance(node, _LeafNode)
                lines.append(f"{prefix}leaf {node.class_counts}")

        walk(self._root, 0)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Distributed-training protocol (Fig. 2)
    # ------------------------------------------------------------------

    def structure_copy(self) -> "HoeffdingTree":
        """Same tree structure with zeroed statistics and splits deferred.

        Workers train these on their partitions; the driver merges them
        back into the global tree and then attempts the deferred splits.
        """
        copy = self.clone()
        copy.defer_splits = True
        copy._next_node_id = self._next_node_id
        copy._root = self._copy_structure(self._root)
        copy.n_leaves = self.n_leaves
        copy.n_split_nodes = self.n_split_nodes
        return copy

    def _copy_structure(self, node: _Node) -> _Node:
        if isinstance(node, _SplitNode):
            return _SplitNode(
                node_id=node.node_id,
                depth=node.depth,
                feature=node.feature,
                threshold=node.threshold,
                left=self._copy_structure(node.left),
                right=self._copy_structure(node.right),
            )
        assert isinstance(node, _LeafNode)
        leaf = _LeafNode(node.node_id, node.depth, self.n_classes)
        leaf.is_active = node.is_active
        return leaf

    def merge(self, other: StreamClassifier) -> None:
        """Fold a partition-trained structure copy into this tree.

        Leaf statistics are matched by node id; this is exact when
        ``other`` came from ``structure_copy()`` of this tree. Trees
        whose structures diverged cannot be merged exactly and raise.
        """
        if not isinstance(other, HoeffdingTree):
            raise TypeError(f"cannot merge HoeffdingTree with {type(other)}")
        mine: Dict[int, _LeafNode] = {leaf.node_id: leaf for leaf in self.leaves()}
        theirs = other.leaves()
        if set(mine) != {leaf.node_id for leaf in theirs}:
            raise ValueError(
                "cannot merge Hoeffding trees with diverged structures; "
                "train partition models via structure_copy()"
            )
        self.instances_seen += other.instances_seen
        for other_leaf in theirs:
            leaf = mine[other_leaf.node_id]
            if other_leaf.table is None:
                continue
            leaf.class_counts = [
                a + b
                for a, b in zip(leaf.class_counts, other_leaf.class_counts)
            ]
            leaf.nb_correct += other_leaf.nb_correct
            leaf.mc_correct += other_leaf.mc_correct
            if leaf.table is None:
                leaf.table = GaussianTable(
                    self.n_classes, other_leaf.table.n_features
                )
            leaf.table.merge(other_leaf.table)

    def attempt_deferred_splits(self) -> int:
        """Try to split every eligible leaf; returns number of splits made.

        Called by the engine after merging partition statistics back into
        the global model.
        """
        n_splits = 0
        for leaf in list(self.leaves()):
            if not leaf.is_active:
                continue
            if leaf.depth >= self.max_depth:
                leaf.is_active = False
                continue
            weight = leaf.total_weight
            if weight - leaf.weight_at_last_attempt >= self.grace_period:
                leaf.weight_at_last_attempt = weight
                if leaf.table is not None and self._attempt_split(leaf):
                    n_splits += 1
        return n_splits

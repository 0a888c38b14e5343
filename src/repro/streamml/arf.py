"""Adaptive Random Forest for evolving data streams (Gomes et al., 2017).

ARF is an online ensemble of Hoeffding Trees with three ingredients:

* **online bagging** — each tree sees each instance with a Poisson(λ)
  weight (λ = 6 by default, as in the reference implementation), which
  simulates bootstrap resampling on a stream;
* **random feature subsets** — each tree restricts every split attempt
  to a random subset of ``ceil(sqrt(n_features))`` features, inducing
  diversity like a classic Random Forest;
* **drift adaptation** — each tree carries two ADWIN detectors over its
  prequential error: a sensitive one raises a *warning* (a background
  tree starts training in parallel) and a strict one signals *drift*
  (the tree is replaced by its background tree, or reset).

Votes are weighted by each tree's recent prequential accuracy.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from repro.streamml.adwin import Adwin
from repro.streamml.base import StreamClassifier
from repro.streamml.hoeffding_tree import HoeffdingTree, SplitCandidate
from repro.streamml.instance import Instance


class _SubspaceHoeffdingTree(HoeffdingTree):
    """Hoeffding Tree that considers a random feature subset per split."""

    def __init__(self, rng: random.Random, subspace_size: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        self._rng = rng
        self.subspace_size = subspace_size

    def _candidate_splits(self, leaf) -> List[SplitCandidate]:
        candidates = super()._candidate_splits(leaf)
        if self.subspace_size <= 0 or not candidates:
            return candidates
        features = sorted({c.feature for c in candidates})
        if len(features) <= self.subspace_size:
            return candidates
        chosen = set(self._rng.sample(features, self.subspace_size))
        return [c for c in candidates if c.feature in chosen]

    def clone(self) -> "_SubspaceHoeffdingTree":
        return _SubspaceHoeffdingTree(
            rng=random.Random(self._rng.random()),
            subspace_size=self.subspace_size,
            n_classes=self.n_classes,
            split_criterion=self.split_criterion,
            split_confidence=self.split_confidence,
            tie_threshold=self.tie_threshold,
            grace_period=self.grace_period,
            max_depth=self.max_depth,
            n_split_points=self.n_split_points,
            leaf_prediction=self.leaf_prediction,
        )


class _ForestMember:
    """One ensemble slot: tree + drift detectors + optional background tree."""

    __slots__ = (
        "tree",
        "warning_detector",
        "drift_detector",
        "background",
        "correct",
        "seen",
        "n_warnings",
        "n_drifts",
    )

    def __init__(
        self, tree: _SubspaceHoeffdingTree, warning_delta: float, drift_delta: float
    ) -> None:
        self.tree = tree
        self.warning_detector = Adwin(delta=warning_delta)
        self.drift_detector = Adwin(delta=drift_delta)
        self.background: Optional[_SubspaceHoeffdingTree] = None
        self.correct = 0.0
        self.seen = 0.0
        self.n_warnings = 0
        self.n_drifts = 0

    @property
    def accuracy(self) -> float:
        if self.seen == 0:
            return 0.0
        return self.correct / self.seen


class AdaptiveRandomForest(StreamClassifier):
    """Online random forest with per-tree ADWIN drift adaptation.

    Args:
        n_classes: number of classes.
        ensemble_size: number of trees (Table I: 10-20, selected 10).
        lambda_poisson: online-bagging Poisson rate (6 in the ARF paper).
        warning_delta / drift_delta: ADWIN confidences for warning/drift.
        disable_drift_detection: turn off ADWIN entirely (ablation).
        seed: RNG seed for reproducibility.
        Remaining kwargs configure the member Hoeffding Trees.
    """

    def __init__(
        self,
        n_classes: int,
        ensemble_size: int = 10,
        lambda_poisson: float = 6.0,
        warning_delta: float = 0.01,
        drift_delta: float = 0.001,
        disable_drift_detection: bool = False,
        seed: int = 1,
        split_criterion: str = "infogain",
        split_confidence: float = 0.01,
        tie_threshold: float = 0.05,
        grace_period: int = 200,
        max_depth: int = 20,
        subspace_size: Optional[int] = None,
    ) -> None:
        super().__init__(n_classes)
        if ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if lambda_poisson <= 0:
            raise ValueError("lambda_poisson must be positive")
        self.ensemble_size = ensemble_size
        self.lambda_poisson = lambda_poisson
        self.warning_delta = warning_delta
        self.drift_delta = drift_delta
        self.disable_drift_detection = disable_drift_detection
        self.seed = seed
        self.split_criterion = split_criterion
        self.split_confidence = split_confidence
        self.tie_threshold = tie_threshold
        self.grace_period = grace_period
        self.max_depth = max_depth
        self.subspace_size = subspace_size
        self._rng = random.Random(seed)
        self._resolved_subspace: Optional[int] = subspace_size
        self.members: List[_ForestMember] = [
            self._new_member(i) for i in range(ensemble_size)
        ]

    def _new_tree(self, member_index: int) -> _SubspaceHoeffdingTree:
        return _SubspaceHoeffdingTree(
            rng=random.Random(self.seed * 7919 + member_index),
            subspace_size=self._resolved_subspace or 0,
            n_classes=self.n_classes,
            split_criterion=self.split_criterion,
            split_confidence=self.split_confidence,
            tie_threshold=self.tie_threshold,
            grace_period=self.grace_period,
            max_depth=self.max_depth,
        )

    def _new_member(self, member_index: int) -> _ForestMember:
        return _ForestMember(
            tree=self._new_tree(member_index),
            warning_delta=self.warning_delta,
            drift_delta=self.drift_delta,
        )

    def _poisson(self, rate: float) -> int:
        """Knuth's Poisson sampler (rate is small, ~6)."""
        threshold = math.exp(-rate)
        k = 0
        product = self._rng.random()
        while product > threshold:
            k += 1
            product *= self._rng.random()
        return k

    def learn_one(self, instance: Instance) -> None:
        label = self._check_labeled(instance)
        if self._resolved_subspace is None:
            self._resolved_subspace = max(
                1, int(math.ceil(math.sqrt(instance.n_features)))
            )
            for member in self.members:
                member.tree.subspace_size = self._resolved_subspace
        self.instances_seen += 1
        for index, member in enumerate(self.members):
            predicted = member.tree.predict_one(instance.x)
            correct = predicted == label
            member.seen += 1
            if correct:
                member.correct += 1
            weight = self._poisson(self.lambda_poisson)
            if weight > 0:
                member.tree.learn_one(instance.with_weight(weight * instance.weight))
            if member.background is not None:
                member.background.learn_one(
                    instance.with_weight(max(weight, 1) * instance.weight)
                )
            if self.disable_drift_detection:
                continue
            error = 0.0 if correct else 1.0
            if member.background is None and member.warning_detector.update(error):
                member.background = self._new_tree(index)
                member.n_warnings += 1
            if member.drift_detector.update(error):
                self._replace_tree(member, index)

    def _replace_tree(self, member: _ForestMember, index: int) -> None:
        member.n_drifts += 1
        if member.background is not None:
            member.tree = member.background
            member.background = None
        else:
            member.tree = self._new_tree(index)
        member.warning_detector.reset()
        member.drift_detector.reset()
        member.correct = 0.0
        member.seen = 0.0

    def predict_proba_one(self, x: Sequence[float]) -> Tuple[float, ...]:
        votes = [0.0] * self.n_classes
        for member in self.members:
            proba = member.tree.predict_proba_one(x)
            weight = max(member.accuracy, 0.01) if member.seen >= 10 else 1.0
            for cls in range(self.n_classes):
                votes[cls] += weight * proba[cls]
        return self._normalize(votes)

    def clone(self) -> "AdaptiveRandomForest":
        return AdaptiveRandomForest(
            n_classes=self.n_classes,
            ensemble_size=self.ensemble_size,
            lambda_poisson=self.lambda_poisson,
            warning_delta=self.warning_delta,
            drift_delta=self.drift_delta,
            disable_drift_detection=self.disable_drift_detection,
            seed=self.seed,
            split_criterion=self.split_criterion,
            split_confidence=self.split_confidence,
            tie_threshold=self.tie_threshold,
            grace_period=self.grace_period,
            max_depth=self.max_depth,
            subspace_size=self.subspace_size,
        )

    def structure_copy(self) -> "AdaptiveRandomForest":
        """Member-wise structure copy for partition-parallel training.

        Drift detectors are not carried over; drift handling happens on
        the driver's global model between micro-batches.
        """
        copy = self.clone()
        copy._resolved_subspace = self._resolved_subspace
        copy.members = []
        for member in self.members:
            tree_copy = member.tree.structure_copy()
            assert isinstance(tree_copy, HoeffdingTree)
            new_member = _ForestMember(
                tree=_as_subspace(tree_copy, member.tree),
                warning_delta=self.warning_delta,
                drift_delta=self.drift_delta,
            )
            copy.members.append(new_member)
        return copy

    def merge(self, other: StreamClassifier) -> None:
        """Member-wise merge of partition-trained structure copies."""
        if not isinstance(other, AdaptiveRandomForest):
            raise TypeError(
                f"cannot merge AdaptiveRandomForest with {type(other)}"
            )
        if len(other.members) != len(self.members):
            raise ValueError("ensemble-size mismatch in merge")
        self.instances_seen += other.instances_seen
        for mine, theirs in zip(self.members, other.members):
            mine.tree.merge(theirs.tree)
            mine.correct += theirs.correct
            mine.seen += theirs.seen

    def attempt_deferred_splits(self) -> int:
        """Attempt deferred splits on every member tree (driver side)."""
        return sum(m.tree.attempt_deferred_splits() for m in self.members)


def _as_subspace(
    tree: HoeffdingTree, template: _SubspaceHoeffdingTree
) -> _SubspaceHoeffdingTree:
    """View a structure-copied tree as a subspace tree (copies config)."""
    if isinstance(tree, _SubspaceHoeffdingTree):
        return tree
    subspace = _SubspaceHoeffdingTree(
        rng=random.Random(0),
        subspace_size=template.subspace_size,
        n_classes=tree.n_classes,
        split_criterion=tree.split_criterion,
        split_confidence=tree.split_confidence,
        tie_threshold=tree.tie_threshold,
        grace_period=tree.grace_period,
        max_depth=tree.max_depth,
        n_split_points=tree.n_split_points,
        leaf_prediction=tree.leaf_prediction,
    )
    subspace.defer_splits = tree.defer_splits
    subspace._root = tree._root
    subspace._next_node_id = tree._next_node_id
    subspace.n_leaves = tree.n_leaves
    subspace.n_split_nodes = tree.n_split_nodes
    return subspace

"""Model serialization: save/load streaming models as plain JSON.

The deployment story of §III-B requires shipping the global model
around (broadcast after every micro-batch, checkpointing across
restarts). This module serializes every streaming classifier to a
JSON-safe dict and back:

* :func:`model_to_dict` / :func:`model_from_dict` — in-memory;
* :func:`save_model` / :func:`load_model` — to/from a JSON file.

Serialized state covers everything needed for identical *predictions*.
ARF drift detectors are intentionally not serialized (their windows are
large and transient); a loaded ARF starts with fresh detectors, exactly
like a tree that was just promoted after a drift.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.streamml.arf import AdaptiveRandomForest, _ForestMember
from repro.streamml.base import StreamClassifier
from repro.streamml.hoeffding_tree import (
    HoeffdingTree,
    _LeafNode,
    _Node,
    _SplitNode,
)
from repro.streamml.majority import MajorityClassClassifier, NoChangeClassifier
from repro.streamml.naive_bayes import GaussianNaiveBayes, GaussianTable
from repro.streamml.slr import StreamingLogisticRegression
from repro.streamml.stats import RunningMinMax, RunningStats

SCHEMA_VERSION = 1

PathLike = Union[str, Path]


class SerializationError(ValueError):
    """Raised for unknown model types or malformed payloads."""


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def _stats_to_dict(stats: RunningStats) -> Dict[str, float]:
    return {"count": stats.count, "mean": stats.mean, "m2": stats._m2}


def _stats_from_dict(payload: Dict[str, float]) -> RunningStats:
    stats = RunningStats()
    stats.count = float(payload["count"])
    stats.mean = float(payload["mean"])
    stats._m2 = float(payload["m2"])
    return stats


def _minmax_to_dict(tracker: RunningMinMax) -> Dict[str, float]:
    return {"count": tracker.count, "min": tracker.min, "max": tracker.max}


def _minmax_from_dict(payload: Dict[str, float]) -> RunningMinMax:
    tracker = RunningMinMax()
    tracker.count = int(payload["count"])
    tracker.min = float(payload["min"])
    tracker.max = float(payload["max"])
    return tracker


def _observers_to_list(table: Optional[GaussianTable]) -> List[Dict[str, Any]]:
    """One ``{n_classes, per_class: [{count, mean, m2}]}`` per feature —
    the observer-object schema, written from the flat table."""
    if table is None:
        return []
    return [
        {
            "n_classes": len(table.weights),
            "per_class": [
                {"count": count, "mean": means[feature], "m2": m2s[feature]}
                for count, means, m2s in zip(
                    table.weights, table.means, table.m2s
                )
            ],
        }
        for feature in range(table.n_features)
    ]


def _ranges_to_list(table: Optional[GaussianTable]) -> List[Dict[str, float]]:
    if table is None:
        return []
    return [
        {"count": table.n_ranged, "min": lo, "max": hi}
        for lo, hi in zip(table.lo, table.hi)
    ]


def _table_from_lists(
    n_classes: int,
    observers: List[Dict[str, Any]],
    ranges: List[Dict[str, float]],
) -> Optional[GaussianTable]:
    """Rebuild the flat table from per-feature observers (+ ranges)."""
    if not observers:
        return None
    table = GaussianTable(n_classes, len(observers))
    for feature, observer in enumerate(observers):
        for label, stats in enumerate(observer["per_class"]):
            count = float(stats["count"])
            if feature == 0:
                table.weights[label] = count
            elif count != table.weights[label]:
                raise SerializationError(
                    f"class {label} count differs across features "
                    f"({count} != {table.weights[label]})"
                )
            table.means[label][feature] = float(stats["mean"])
            table.m2s[label][feature] = float(stats["m2"])
    for feature, tracker in enumerate(ranges):
        table.n_ranged = int(tracker["count"])
        table.lo[feature] = float(tracker["min"])
        table.hi[feature] = float(tracker["max"])
    return table


# ----------------------------------------------------------------------
# Hoeffding Tree
# ----------------------------------------------------------------------

def _node_to_dict(node: _Node) -> Dict[str, Any]:
    if isinstance(node, _SplitNode):
        return {
            "kind": "split",
            "node_id": node.node_id,
            "depth": node.depth,
            "feature": node.feature,
            "threshold": node.threshold,
            "left": _node_to_dict(node.left),
            "right": _node_to_dict(node.right),
        }
    assert isinstance(node, _LeafNode)
    return {
        "kind": "leaf",
        "node_id": node.node_id,
        "depth": node.depth,
        "class_counts": list(node.class_counts),
        "observers": _observers_to_list(node.table),
        "ranges": _ranges_to_list(node.table),
        "weight_at_last_attempt": node.weight_at_last_attempt,
        "nb_correct": node.nb_correct,
        "mc_correct": node.mc_correct,
        "is_active": node.is_active,
    }


def _node_from_dict(payload: Dict[str, Any], n_classes: int) -> _Node:
    if payload["kind"] == "split":
        return _SplitNode(
            node_id=int(payload["node_id"]),
            depth=int(payload["depth"]),
            feature=int(payload["feature"]),
            threshold=float(payload["threshold"]),
            left=_node_from_dict(payload["left"], n_classes),
            right=_node_from_dict(payload["right"], n_classes),
        )
    leaf = _LeafNode(int(payload["node_id"]), int(payload["depth"]), n_classes)
    leaf.class_counts = [float(c) for c in payload["class_counts"]]
    leaf.table = _table_from_lists(
        n_classes, payload["observers"], payload["ranges"]
    )
    leaf.weight_at_last_attempt = float(payload["weight_at_last_attempt"])
    leaf.nb_correct = float(payload["nb_correct"])
    leaf.mc_correct = float(payload["mc_correct"])
    leaf.is_active = bool(payload["is_active"])
    return leaf


def _ht_to_dict(model: HoeffdingTree) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "split_criterion": model.split_criterion,
        "split_confidence": model.split_confidence,
        "tie_threshold": model.tie_threshold,
        "grace_period": model.grace_period,
        "max_depth": model.max_depth,
        "n_split_points": model.n_split_points,
        "leaf_prediction": model.leaf_prediction,
        "instances_seen": model.instances_seen,
        "next_node_id": model._next_node_id,
        "n_leaves": model.n_leaves,
        "n_split_nodes": model.n_split_nodes,
        "root": _node_to_dict(model._root),
    }


def _ht_from_dict(payload: Dict[str, Any]) -> HoeffdingTree:
    model = HoeffdingTree(
        n_classes=int(payload["n_classes"]),
        split_criterion=payload["split_criterion"],
        split_confidence=float(payload["split_confidence"]),
        tie_threshold=float(payload["tie_threshold"]),
        grace_period=int(payload["grace_period"]),
        max_depth=int(payload["max_depth"]),
        n_split_points=int(payload["n_split_points"]),
        leaf_prediction=payload["leaf_prediction"],
    )
    model.instances_seen = int(payload["instances_seen"])
    model._next_node_id = int(payload["next_node_id"])
    model.n_leaves = int(payload["n_leaves"])
    model.n_split_nodes = int(payload["n_split_nodes"])
    model._root = _node_from_dict(payload["root"], model.n_classes)
    return model


# ----------------------------------------------------------------------
# Other classifiers
# ----------------------------------------------------------------------

def _slr_to_dict(model: StreamingLogisticRegression) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "learning_rate": model.learning_rate,
        "regularizer": model.regularizer,
        "regularization": model.regularization,
        "decay": model.decay,
        "instances_seen": model.instances_seen,
        "weights": [list(row) for row in model.weights],
        "bias": list(model.bias),
    }


def _slr_from_dict(payload: Dict[str, Any]) -> StreamingLogisticRegression:
    model = StreamingLogisticRegression(
        n_classes=int(payload["n_classes"]),
        learning_rate=float(payload["learning_rate"]),
        regularizer=payload["regularizer"],
        regularization=float(payload["regularization"]),
        decay=float(payload["decay"]),
    )
    model.instances_seen = int(payload["instances_seen"])
    model._weights = [[float(w) for w in row] for row in payload["weights"]]
    model._bias = [float(b) for b in payload["bias"]]
    return model


def _gnb_to_dict(model: GaussianNaiveBayes) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "instances_seen": model.instances_seen,
        "class_counts": list(model.class_counts),
        "observers": _observers_to_list(model._table),
    }


def _gnb_from_dict(payload: Dict[str, Any]) -> GaussianNaiveBayes:
    model = GaussianNaiveBayes(n_classes=int(payload["n_classes"]))
    model.instances_seen = int(payload["instances_seen"])
    model.class_counts = [float(c) for c in payload["class_counts"]]
    model._table = _table_from_lists(model.n_classes, payload["observers"], [])
    return model


def _majority_to_dict(model: MajorityClassClassifier) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "instances_seen": model.instances_seen,
        "class_counts": list(model.class_counts),
    }


def _majority_from_dict(payload: Dict[str, Any]) -> MajorityClassClassifier:
    model = MajorityClassClassifier(n_classes=int(payload["n_classes"]))
    model.instances_seen = int(payload["instances_seen"])
    model.class_counts = [float(c) for c in payload["class_counts"]]
    return model


def _nochange_to_dict(model: NoChangeClassifier) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "instances_seen": model.instances_seen,
        "last_label": model.last_label,
    }


def _nochange_from_dict(payload: Dict[str, Any]) -> NoChangeClassifier:
    model = NoChangeClassifier(n_classes=int(payload["n_classes"]))
    model.instances_seen = int(payload["instances_seen"])
    model.last_label = int(payload["last_label"])
    return model


def _arf_to_dict(model: AdaptiveRandomForest) -> Dict[str, Any]:
    return {
        "n_classes": model.n_classes,
        "ensemble_size": model.ensemble_size,
        "lambda_poisson": model.lambda_poisson,
        "warning_delta": model.warning_delta,
        "drift_delta": model.drift_delta,
        "disable_drift_detection": model.disable_drift_detection,
        "seed": model.seed,
        "split_criterion": model.split_criterion,
        "split_confidence": model.split_confidence,
        "tie_threshold": model.tie_threshold,
        "grace_period": model.grace_period,
        "max_depth": model.max_depth,
        "subspace_size": model.subspace_size,
        "resolved_subspace": model._resolved_subspace,
        "instances_seen": model.instances_seen,
        "members": [
            {
                "tree": _ht_to_dict(member.tree),
                "tree_subspace": member.tree.subspace_size,
                "correct": member.correct,
                "seen": member.seen,
                "n_warnings": member.n_warnings,
                "n_drifts": member.n_drifts,
            }
            for member in model.members
        ],
    }


def _arf_from_dict(payload: Dict[str, Any]) -> AdaptiveRandomForest:
    import random as _random

    model = AdaptiveRandomForest(
        n_classes=int(payload["n_classes"]),
        ensemble_size=int(payload["ensemble_size"]),
        lambda_poisson=float(payload["lambda_poisson"]),
        warning_delta=float(payload["warning_delta"]),
        drift_delta=float(payload["drift_delta"]),
        disable_drift_detection=bool(payload["disable_drift_detection"]),
        seed=int(payload["seed"]),
        split_criterion=payload["split_criterion"],
        split_confidence=float(payload["split_confidence"]),
        tie_threshold=float(payload["tie_threshold"]),
        grace_period=int(payload["grace_period"]),
        max_depth=int(payload["max_depth"]),
        subspace_size=payload["subspace_size"],
    )
    model._resolved_subspace = payload["resolved_subspace"]
    model.instances_seen = int(payload["instances_seen"])
    from repro.streamml.arf import _SubspaceHoeffdingTree

    members: List[_ForestMember] = []
    for index, item in enumerate(payload["members"]):
        plain = _ht_from_dict(item["tree"])
        tree = _SubspaceHoeffdingTree(
            rng=_random.Random(model.seed * 7919 + index),
            subspace_size=int(item["tree_subspace"]),
            n_classes=plain.n_classes,
            split_criterion=plain.split_criterion,
            split_confidence=plain.split_confidence,
            tie_threshold=plain.tie_threshold,
            grace_period=plain.grace_period,
            max_depth=plain.max_depth,
            n_split_points=plain.n_split_points,
            leaf_prediction=plain.leaf_prediction,
        )
        tree._root = plain._root
        tree._next_node_id = plain._next_node_id
        tree.n_leaves = plain.n_leaves
        tree.n_split_nodes = plain.n_split_nodes
        tree.instances_seen = plain.instances_seen
        member = _ForestMember(
            tree=tree,
            warning_delta=model.warning_delta,
            drift_delta=model.drift_delta,
        )
        member.correct = float(item["correct"])
        member.seen = float(item["seen"])
        member.n_warnings = int(item["n_warnings"])
        member.n_drifts = int(item["n_drifts"])
        members.append(member)
    model.members = members
    return model


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

_TO_DICT = {
    HoeffdingTree: ("hoeffding_tree", _ht_to_dict),
    StreamingLogisticRegression: ("slr", _slr_to_dict),
    GaussianNaiveBayes: ("gnb", _gnb_to_dict),
    MajorityClassClassifier: ("majority", _majority_to_dict),
    NoChangeClassifier: ("nochange", _nochange_to_dict),
    AdaptiveRandomForest: ("arf", _arf_to_dict),
}

_FROM_DICT = {
    "hoeffding_tree": _ht_from_dict,
    "slr": _slr_from_dict,
    "gnb": _gnb_from_dict,
    "majority": _majority_from_dict,
    "nochange": _nochange_from_dict,
    "arf": _arf_from_dict,
}


def model_to_dict(model: StreamClassifier) -> Dict[str, Any]:
    """Serialize any streaming classifier to a JSON-safe dict."""
    for cls in type(model).__mro__:
        if cls in _TO_DICT:
            kind, encode = _TO_DICT[cls]
            return {
                "schema_version": SCHEMA_VERSION,
                "kind": kind,
                "model": encode(model),
            }
    raise SerializationError(f"cannot serialize model type {type(model)!r}")


def model_from_dict(payload: Dict[str, Any]) -> StreamClassifier:
    """Reconstruct a streaming classifier from :func:`model_to_dict`."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SerializationError(f"unsupported schema version {version!r}")
    kind = payload.get("kind")
    if kind not in _FROM_DICT:
        raise SerializationError(f"unknown model kind {kind!r}")
    return _FROM_DICT[kind](payload["model"])


def save_model(model: StreamClassifier, path: PathLike) -> int:
    """Write a model to a JSON file; returns the byte size written."""
    text = json.dumps(model_to_dict(model), separators=(",", ":"))
    Path(path).write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def load_model(path: PathLike) -> StreamClassifier:
    """Read a model back from :func:`save_model` output."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return model_from_dict(payload)

"""Pipeline checkpointing: save and resume the full detector state.

A production stream processor must survive restarts without losing its
model, its normalization statistics, or its adaptive vocabulary (Spark
Streaming checkpoints its state for the same reason). This module
serializes the *entire* :class:`AggressionDetectionPipeline` — model,
normalizer, adaptive bag-of-words, prequential evaluator, alert
history, sampler reservoir, and counters — to a JSON file, such that a
resumed pipeline continues the stream *exactly* as the original would
have (verified by the equivalence tests).

Checkpoint files are written *atomically and durably*
(:func:`atomic_write_json`): the payload goes to a ``*.tmp`` file in
the same directory, is fsynced, and is moved over the target with
``os.replace``, with the parent directory fsynced around the rename so
the swap survives power loss, not just process crash. A crash mid-save
therefore leaves either the previous good checkpoint or the new one,
never a torn file — the invariant the stream supervisor's
checkpoint-resume guarantee and the serving layer's snapshot store
rest on.

The engines' state format lives here too: both engines keep their
detector state in one pipeline, so :func:`engine_to_dict` /
:func:`engine_from_dict` wrap the same pipeline payload, tagged by
``engine.kind``, plus the micro-batch engine's partitioning and batch
history. The stream supervisor's checkpoint embeds that payload.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Union

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.core.alerting import Alert, AlertAction, AlertManager
from repro.core.config import PipelineConfig
from repro.core.evaluation import MetricsPoint, PrequentialEvaluator
from repro.core.normalization import (
    IdentityNormalizer,
    MinMaxNoOutliersNormalizer,
    MinMaxNormalizer,
    Normalizer,
    ZScoreNormalizer,
)
from repro.core.pipeline import AggressionDetectionPipeline
from repro.streamml.serialize import (
    SerializationError,
    _minmax_from_dict,
    _minmax_to_dict,
    _stats_from_dict,
    _stats_to_dict,
    model_from_dict,
    model_to_dict,
)
from repro.streamml.instance import ClassifiedInstance, Instance

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.engine.microbatch import MicroBatchResult
    from repro.engine.protocol import Engine

CHECKPOINT_VERSION = 2

PathLike = Union[str, Path]


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so its entries (renames) reach stable storage.

    Some filesystems (and non-POSIX platforms) refuse to open or fsync
    directories; durability degrades gracefully there — the rename is
    still atomic, it just rides the next metadata flush.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> int:
    """Write ``text`` to ``path`` atomically and durably; returns bytes.

    Writes to ``<name>.tmp`` in the *same directory* (``os.replace``
    must not cross filesystems), flushes and fsyncs the data, fsyncs
    the parent directory (so the temp file's *entry* is on disk before
    the rename references it), replaces the target in one atomic
    rename, then fsyncs the parent directory again so the rename
    itself survives power loss — not just process crash. A failure at
    any point leaves the previous file contents intact; the stale
    ``*.tmp`` is overwritten by the next attempt. Shared by the
    checkpoint writers, the snapshot store and the flight recorder's
    post-mortem dumps — anything that must never leave a torn file
    behind.
    """
    target = Path(path)
    data = text.encode("utf-8")
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    parent = target.parent if str(target.parent) else Path(".")
    _fsync_dir(parent)
    os.replace(tmp, target)
    _fsync_dir(parent)
    return len(data)


def atomic_write_json(path: PathLike, payload: Any) -> int:
    """Write JSON to ``path`` atomically; returns the byte size.

    See :func:`atomic_write_text` for the crash-safety contract.
    """
    return atomic_write_text(path, json.dumps(payload, separators=(",", ":")))


# ----------------------------------------------------------------------
# Normalizers
# ----------------------------------------------------------------------

def _no_outliers_state_from_p2(
    lower: List[Dict[str, Any]], upper: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Block-sketch state from the previous (per-feature P²) payload.

    Kept one format back so existing checkpoints and serve snapshots
    load: each sketch's middle marker ``q[2]`` is its quantile estimate,
    ``q[0]``/``q[4]`` the observed extremes and ``count`` the rows it
    summarised. A sketch still buffering (< 5 rows, empty ``q``) hands
    its ``initial`` samples back as pending rows.
    """
    if not lower[0]["q"]:
        return {
            "folded": 0,
            "pending": [list(row) for row in zip(*(s["initial"] for s in lower))],
        }
    return {
        "folded": int(lower[0]["count"]),
        "lo": [s["q"][2] for s in lower],
        "hi": [s["q"][2] for s in upper],
        "min": [min(a["q"][0], b["q"][0]) for a, b in zip(lower, upper)],
        "max": [max(a["q"][4], b["q"][4]) for a, b in zip(lower, upper)],
        "pending": [],
    }


def normalizer_to_dict(normalizer: Normalizer) -> Dict[str, Any]:
    """Serialize any normalizer kind."""
    base = {
        "n_features": normalizer.n_features,
        "observed": normalizer.observed,
        "transformed": normalizer.n_transformed,
        "clipped": normalizer.n_clipped,
    }
    if isinstance(normalizer, MinMaxNoOutliersNormalizer):
        return dict(
            base,
            kind="minmax_no_outliers",
            lower_quantile=normalizer.lower_quantile,
            upper_quantile=normalizer.upper_quantile,
            **normalizer.sketch_state(),
        )
    if isinstance(normalizer, MinMaxNormalizer):
        return dict(
            base,
            kind="minmax",
            trackers=[_minmax_to_dict(t) for t in normalizer._trackers],
        )
    if isinstance(normalizer, ZScoreNormalizer):
        return dict(
            base,
            kind="zscore",
            stats=[_stats_to_dict(s) for s in normalizer._stats],
        )
    if isinstance(normalizer, IdentityNormalizer):
        return dict(base, kind="none")
    raise SerializationError(f"unknown normalizer type {type(normalizer)!r}")


def normalizer_from_dict(payload: Dict[str, Any]) -> Normalizer:
    """Reconstruct a normalizer from :func:`normalizer_to_dict`."""
    kind = payload["kind"]
    n_features = int(payload["n_features"])
    if kind == "minmax_no_outliers":
        normalizer = MinMaxNoOutliersNormalizer(
            n_features,
            lower_quantile=float(payload["lower_quantile"]),
            upper_quantile=float(payload["upper_quantile"]),
        )
        normalizer.restore_sketch(
            _no_outliers_state_from_p2(payload["lower"], payload["upper"])
            if "lower" in payload
            else payload
        )
    elif kind == "minmax":
        normalizer = MinMaxNormalizer(n_features)
        normalizer._trackers = [
            _minmax_from_dict(t) for t in payload["trackers"]
        ]
    elif kind == "zscore":
        normalizer = ZScoreNormalizer(n_features)
        normalizer._stats = [_stats_from_dict(s) for s in payload["stats"]]
    elif kind == "none":
        normalizer = IdentityNormalizer(n_features)
    else:
        raise SerializationError(f"unknown normalizer kind {kind!r}")
    normalizer.observed = int(payload["observed"])
    # Pre-observability checkpoints lack the clip counters; default to 0.
    normalizer.n_transformed = int(payload.get("transformed", 0))
    normalizer.n_clipped = int(payload.get("clipped", 0))
    return normalizer


# ----------------------------------------------------------------------
# Bag of words
# ----------------------------------------------------------------------

def _bow_to_dict(bow: Union[AdaptiveBagOfWords, FixedBagOfWords]) -> Dict[str, Any]:
    if isinstance(bow, FixedBagOfWords):
        return {"kind": "fixed", "words": sorted(bow.words)}
    return {
        "kind": "adaptive",
        "words": sorted(bow.words),
        "seed": sorted(bow.seed),
        "update_interval": bow.update_interval,
        "decay": bow.decay,
        "add_min_count": bow.add_min_count,
        "add_ratio": bow.add_ratio,
        "remove_min_count": bow.remove_min_count,
        "remove_ratio": bow.remove_ratio,
        "min_word_length": bow.min_word_length,
        "aggressive_counts": bow._aggressive_counts,
        "normal_counts": bow._normal_counts,
        "aggressive_tweets": bow._aggressive_tweets,
        "normal_tweets": bow._normal_tweets,
        "since_maintenance": bow._since_maintenance,
        "n_added": bow.n_added,
        "n_removed": bow.n_removed,
        "size_history": [list(p) for p in bow.size_history],
        "labeled_seen": bow._labeled_seen,
    }


def _bow_from_dict(payload: Dict[str, Any]):
    if payload["kind"] == "fixed":
        return FixedBagOfWords(seed_words=payload["words"])
    bow = AdaptiveBagOfWords(
        seed_words=payload["words"],
        update_interval=int(payload["update_interval"]),
        decay=float(payload["decay"]),
        add_min_count=float(payload["add_min_count"]),
        add_ratio=float(payload["add_ratio"]),
        remove_min_count=float(payload["remove_min_count"]),
        remove_ratio=float(payload["remove_ratio"]),
        min_word_length=int(payload["min_word_length"]),
    )
    bow.seed = set(payload["seed"])
    bow._aggressive_counts = {
        k: float(v) for k, v in payload["aggressive_counts"].items()
    }
    bow._normal_counts = {
        k: float(v) for k, v in payload["normal_counts"].items()
    }
    bow._aggressive_tweets = float(payload["aggressive_tweets"])
    bow._normal_tweets = float(payload["normal_tweets"])
    bow._since_maintenance = int(payload["since_maintenance"])
    bow.n_added = int(payload["n_added"])
    bow.n_removed = int(payload["n_removed"])
    bow.size_history = [tuple(p) for p in payload["size_history"]]
    bow._labeled_seen = int(payload["labeled_seen"])
    return bow


# ----------------------------------------------------------------------
# Evaluator / sampler
# ----------------------------------------------------------------------

def _evaluator_to_dict(evaluator: PrequentialEvaluator) -> Dict[str, Any]:
    return {
        "n_classes": evaluator.n_classes,
        "window": evaluator.window,
        "record_every": evaluator.record_every,
        "cumulative": evaluator.cumulative.matrix,
        "windowed": evaluator.windowed.matrix,
        "window_contents": [list(p) for p in evaluator._window_contents],
        "n_labeled": evaluator.n_labeled,
        "history": [vars(p) for p in evaluator.history],
        "unlabeled_counts": {
            str(k): v for k, v in evaluator.unlabeled_stats.counts.items()
        },
        "unlabeled_total": evaluator.unlabeled_stats.total,
    }


def _evaluator_from_dict(payload: Dict[str, Any]) -> PrequentialEvaluator:
    from collections import deque

    evaluator = PrequentialEvaluator(
        n_classes=int(payload["n_classes"]),
        window=int(payload["window"]),
        record_every=int(payload["record_every"]),
    )
    evaluator.cumulative.matrix = [
        [float(v) for v in row] for row in payload["cumulative"]
    ]
    evaluator.cumulative.total = sum(
        sum(row) for row in evaluator.cumulative.matrix
    )
    evaluator.windowed.matrix = [
        [float(v) for v in row] for row in payload["windowed"]
    ]
    evaluator.windowed.total = sum(
        sum(row) for row in evaluator.windowed.matrix
    )
    evaluator._window_contents = deque(
        (int(t), int(p)) for t, p in payload["window_contents"]
    )
    evaluator.n_labeled = int(payload["n_labeled"])
    evaluator.history = [MetricsPoint(**p) for p in payload["history"]]
    evaluator.unlabeled_stats.counts = {
        int(k): int(v) for k, v in payload["unlabeled_counts"].items()
    }
    evaluator.unlabeled_stats.total = int(payload["unlabeled_total"])
    return evaluator


def _classified_to_dict(classified: ClassifiedInstance) -> Dict[str, Any]:
    instance = classified.instance
    return {
        "x": list(instance.x),
        "y": instance.y,
        "weight": instance.weight,
        "timestamp": instance.timestamp,
        "tweet_id": instance.tweet_id,
        "predicted": classified.predicted,
        "proba": list(classified.proba),
    }


def _classified_from_dict(payload: Dict[str, Any]) -> ClassifiedInstance:
    return ClassifiedInstance(
        instance=Instance(
            x=tuple(payload["x"]),
            y=payload["y"],
            weight=float(payload["weight"]),
            timestamp=float(payload["timestamp"]),
            tweet_id=payload["tweet_id"],
        ),
        predicted=int(payload["predicted"]),
        proba=tuple(payload["proba"]),
    )


# ----------------------------------------------------------------------
# Alerting / sampler / config (shared with the engine checkpoints)
# ----------------------------------------------------------------------

def _alert_to_dict(alert: Alert) -> Dict[str, Any]:
    return {
        "tweet_id": alert.tweet_id,
        "user_id": alert.user_id,
        "predicted_class": alert.predicted_class,
        "confidence": alert.confidence,
        "timestamp": alert.timestamp,
        "action": alert.action.value,
    }


def _alert_from_dict(payload: Dict[str, Any]) -> Alert:
    return Alert(
        tweet_id=payload["tweet_id"],
        user_id=payload["user_id"],
        predicted_class=int(payload["predicted_class"]),
        confidence=float(payload["confidence"]),
        timestamp=float(payload["timestamp"]),
        action=AlertAction(payload["action"]),
    )


def alert_manager_to_dict(manager: AlertManager) -> Dict[str, Any]:
    """Serialize the alert manager's live state *and* its audit log.

    The full alert list is kept so a resumed run reproduces the
    uninterrupted run's alert list exactly (the supervisor's
    crash-resume equivalence guarantee); registered sinks are runtime
    wiring and are not serialized.
    """
    return {
        "suspended_users": dict(manager.suspended_users),
        "user_history": {
            user: list(history)
            for user, history in manager._user_history.items()
        },
        "alerts": [_alert_to_dict(alert) for alert in manager.alerts],
    }


def restore_alert_manager(
    manager: AlertManager, payload: Dict[str, Any]
) -> None:
    """Load :func:`alert_manager_to_dict` state into a fresh manager."""
    from collections import deque

    manager.suspended_users = {
        user: float(ts) for user, ts in payload["suspended_users"].items()
    }
    manager._user_history = {
        user: deque(float(t) for t in history)
        for user, history in payload["user_history"].items()
    }
    manager.alerts = [_alert_from_dict(a) for a in payload["alerts"]]


def sampler_to_dict(sampler) -> Dict[str, Any]:
    """Serialize the boosted reservoir, RNG state included."""
    return {
        "rng_state": _rng_state_to_json(sampler._rng.getstate()),
        "counter": sampler._counter,
        "n_offered": sampler.n_offered,
        "n_aggressive_offered": sampler.n_aggressive_offered,
        "heap": [
            {"key": key, "tiebreak": tiebreak,
             "item": _classified_to_dict(item)}
            for key, tiebreak, item in sampler._heap
        ],
    }


def restore_sampler(sampler, payload: Dict[str, Any]) -> None:
    """Load :func:`sampler_to_dict` state into a fresh sampler."""
    import heapq

    sampler._rng.setstate(_rng_state_from_json(payload["rng_state"]))
    sampler._counter = int(payload["counter"])
    sampler.n_offered = int(payload["n_offered"])
    sampler.n_aggressive_offered = int(payload["n_aggressive_offered"])
    sampler._heap = [
        (float(e["key"]), int(e["tiebreak"]), _classified_from_dict(e["item"]))
        for e in payload["heap"]
    ]
    heapq.heapify(sampler._heap)


def config_to_dict(config: PipelineConfig) -> Dict[str, Any]:
    """The pipeline-config fields a checkpoint must round-trip."""
    return {
        "n_classes": config.n_classes,
        "preprocessing": config.preprocessing,
        "normalization": config.normalization,
        "adaptive_bow": config.adaptive_bow,
        "deobfuscate": config.deobfuscate,
        "model": config.model,
        "model_params": dict(config.model_params),
        "evaluation_window": config.evaluation_window,
        "record_every": config.record_every,
        "alert_min_confidence": config.alert_min_confidence,
        "sample_capacity": config.sample_capacity,
        "sample_boost": config.sample_boost,
        "seed": config.seed,
    }


def config_from_dict(payload: Dict[str, Any]) -> PipelineConfig:
    """Rebuild a config from :func:`config_to_dict` output.

    ``fast_math`` is dropped: payloads written before the numpy twin
    kernels were deleted carry it, and a ``true`` one resumes on the
    scalar kernels (DESIGN.md §9). Any other unknown key still raises.
    """
    fields = dict(payload)
    fields.pop("fast_math", None)
    return PipelineConfig(**fields)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

def pipeline_to_dict(pipeline: AggressionDetectionPipeline) -> Dict[str, Any]:
    """Serialize the full pipeline state (JSON-safe)."""
    return {
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": config_to_dict(pipeline.config),
        "model": model_to_dict(pipeline.model),
        "normalizer": normalizer_to_dict(pipeline.normalizer),
        "bag_of_words": _bow_to_dict(pipeline.bag_of_words),
        "evaluator": _evaluator_to_dict(pipeline.evaluator),
        "counters": {
            "n_processed": pipeline.n_processed,
            "n_labeled": pipeline.n_labeled,
            "n_unlabeled": pipeline.n_unlabeled,
            "n_quarantined": pipeline.n_quarantined,
        },
        "alerting": alert_manager_to_dict(pipeline.alert_manager),
        "sampler": sampler_to_dict(pipeline.sampler),
    }


def restore_pipeline(
    pipeline: AggressionDetectionPipeline, payload: Dict[str, Any]
) -> None:
    """Load :func:`pipeline_to_dict` state into a live pipeline.

    ``pipeline`` must be built with the payload's config. Its wiring —
    registry, metric label, dead-letter queue, breaker — stays as
    built, so whatever wraps it needs no rebinding.
    """
    version = payload.get("checkpoint_version")
    if version != CHECKPOINT_VERSION:
        raise SerializationError(f"unsupported checkpoint version {version!r}")
    pipeline.model = model_from_dict(payload["model"])
    pipeline.normalizer = normalizer_from_dict(payload["normalizer"])
    pipeline.bag_of_words = _bow_from_dict(payload["bag_of_words"])
    pipeline.extractor.bag_of_words = pipeline.bag_of_words
    pipeline.evaluator = _evaluator_from_dict(payload["evaluator"])
    counters = payload["counters"]
    pipeline.n_processed = int(counters["n_processed"])
    pipeline.n_labeled = int(counters["n_labeled"])
    pipeline.n_unlabeled = int(counters["n_unlabeled"])
    pipeline.n_quarantined = int(counters.get("n_quarantined", 0))
    restore_alert_manager(pipeline.alert_manager, payload["alerting"])
    restore_sampler(pipeline.sampler, payload["sampler"])


def pipeline_from_dict(payload: Dict[str, Any]) -> AggressionDetectionPipeline:
    """Rebuild a pipeline that continues exactly where the saved one was."""
    pipeline = AggressionDetectionPipeline(config_from_dict(payload["config"]))
    restore_pipeline(pipeline, payload)
    return pipeline


def save_pipeline(pipeline: AggressionDetectionPipeline, path: PathLike) -> int:
    """Atomically write a checkpoint file; returns the byte size.

    Uses :func:`atomic_write_json`, so a crash mid-save can never
    corrupt the last good checkpoint at ``path``.
    """
    return atomic_write_json(path, pipeline_to_dict(pipeline))


def _rng_state_to_json(state) -> List[Any]:
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def _rng_state_from_json(payload) -> tuple:
    version, internal, gauss_next = payload
    return (int(version), tuple(int(v) for v in internal), gauss_next)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------

def engine_to_dict(engine: "Engine") -> Dict[str, Any]:
    """Serialize an engine's complete training state (tagged by kind).

    The engine is drained first: a pipelined micro-batch engine may
    hold one in-flight batch whose merges have not landed, and a
    snapshot taken mid-flight would drop it (its tweets were consumed
    from the stream but are in no checkpoint), so draining makes the
    checkpoint exactly-once. Runner/pool configuration is *not* state —
    the resumer chooses it (the pipelined flag is recorded so a resume
    keeps the mode).
    """
    engine.drain()
    payload = {
        "engine": engine.kind,
        "pipeline": pipeline_to_dict(engine.pipeline),
    }
    if engine.kind == "microbatch":
        payload.update(
            n_partitions=engine.n_partitions,
            batch_size=engine.batch_size,
            pipelined=engine.pipelined,
            n_retries=engine.n_retries,
            batches=[_batch_result_to_dict(b) for b in engine.batches],
        )
    return payload


class RetiredLayoutError(SerializationError):
    """A checkpoint in a layout this version no longer reads.

    Not corruption: every file written in that layout fails the same
    way, so a resumer stops on it instead of falling back to an older
    file.
    """


def engine_pipeline_state(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``pipeline`` section of an engine's saved state.

    Raises :class:`RetiredLayoutError` when it is missing: the flat
    micro-batch layout kept the pipeline's sections at the engine's top
    level, and it is no longer read.
    """
    if "pipeline" not in payload:
        raise RetiredLayoutError(
            f"{payload.get('engine')} engine state has no 'pipeline' "
            "section: the flat micro-batch checkpoint layout (written "
            "before both engines kept their state in one pipeline) is no "
            "longer read"
        )
    return payload["pipeline"]


def engine_from_dict(payload: Dict[str, Any], **wiring: Any) -> "Engine":
    """Rebuild the engine :func:`engine_to_dict` saved.

    The one place the payload's ``"engine"`` tag picks a class.
    ``wiring`` is what a checkpoint cannot hold — pools and callbacks —
    so the resumer chooses it: ``dead_letters`` and ``max_poison_rate``
    for either engine, plus ``runner``, ``n_workers``, ``retry_policy``,
    ``partition_deadline_s`` and ``recorder`` for the micro-batch
    engine. The saved pipeline state is loaded into the new
    engine's own pipeline.
    """
    kind = payload["engine"]
    pipeline = engine_pipeline_state(payload)
    if kind == "microbatch":
        from repro.engine.microbatch import MicroBatchEngine

        engine: Any = MicroBatchEngine(
            config_from_dict(pipeline["config"]),
            n_partitions=int(payload["n_partitions"]),
            batch_size=int(payload["batch_size"]),
            pipelined=bool(payload.get("pipelined", False)),
            **wiring,
        )
        engine.n_retries = int(payload["n_retries"])
        engine.batches = [
            _batch_result_from_dict(b) for b in payload["batches"]
        ]
    elif kind == "sequential":
        from repro.engine.sequential import SequentialEngine

        engine = SequentialEngine(
            config_from_dict(pipeline["config"]),
            dead_letters=wiring.get("dead_letters"),
            max_poison_rate=wiring.get("max_poison_rate"),
        )
    else:
        raise SerializationError(f"unknown engine kind {kind!r}")
    restore_pipeline(engine.pipeline, pipeline)
    return engine


def _batch_result_to_dict(batch: "MicroBatchResult") -> Dict[str, Any]:
    """The batch's fields in declaration order, timings as a dict."""
    return dict(vars(batch), stage_seconds=batch.stage_seconds.as_dict())


def _batch_result_from_dict(payload: Dict[str, Any]) -> "MicroBatchResult":
    from repro.engine.microbatch import MicroBatchResult, StageTimings

    stages = StageTimings(**payload["stage_seconds"])
    return MicroBatchResult(**dict(payload, stage_seconds=stages))

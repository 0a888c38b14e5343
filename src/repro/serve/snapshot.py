"""Checksummed, versioned model snapshots for the serving layer.

The training side (:class:`~repro.reliability.supervisor.
StreamSupervisor`, ``repro run --publish-snapshot``, ``repro snapshot
publish``) periodically *publishes* the serving-relevant slice of the
pipeline state — config, model, normalizer, bag-of-words — and the
server *consumes* it: polls for new versions, verifies them, and
hot-swaps. The store is the contract between the two processes:

* every snapshot is one JSON file (``snapshot-NNNNNN.json``) written
  with :func:`~repro.core.checkpoint.atomic_write_text` (fsynced tmp
  file + parent-directory fsync around the rename — durable, never
  torn);
* a ``MANIFEST.json`` (also atomic) names the latest version and the
  sha256 of every retained snapshot's bytes, so a reader can detect a
  truncated, bit-flipped, or torn file *before* deserializing it;
* :meth:`SnapshotStore.load_latest_verified` refuses anything whose
  digest or payload does not verify and falls back to the newest
  older version that does — corrupt state degrades freshness, never
  availability;
* retention is bounded: ``keep`` verified snapshots are kept on disk,
  older files are garbage-collected at publish time.

Single-writer, many-reader: the publisher owns version assignment and
GC; readers only ever open files the manifest names and re-verify the
digest themselves, so a reader racing a publish sees either the old
manifest or the new one — both self-consistent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.checkpoint import (
    RetiredLayoutError,
    _bow_to_dict,
    atomic_write_text,
    config_to_dict,
    engine_pipeline_state,
    normalizer_to_dict,
)
from repro.obs.logconfig import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.streamml.serialize import model_to_dict

logger = get_logger("serve.snapshot")

PathLike = Union[str, Path]

#: Payload schema version; bump when the snapshot layout changes.
SNAPSHOT_VERSION = 1

MANIFEST_FILENAME = "MANIFEST.json"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


class SnapshotIntegrityError(Exception):
    """A snapshot failed digest or payload verification."""


@dataclass(frozen=True)
class SnapshotInfo:
    """Manifest entry for one published snapshot."""

    version: int
    path: Path
    sha256: str
    n_bytes: int
    meta: Dict[str, Any]


def snapshot_payload(
    config: Any,
    model: Any,
    normalizer: Any,
    bag_of_words: Any,
) -> Dict[str, Any]:
    """The serving-relevant state slice, via the checkpoint serializers.

    This is deliberately *less* than a checkpoint: no evaluator, no
    sampler, no alert audit log — the server scores tweets, it does
    not train, so only the scoring path rides along.
    """
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "config": config_to_dict(config),
        "model": model_to_dict(model),
        "normalizer": normalizer_to_dict(normalizer),
        "bag_of_words": _bow_to_dict(bag_of_words),
    }


def payload_from_source(source: Any) -> Dict[str, Any]:
    """Snapshot payload from any pipeline-shaped object.

    Works for :class:`~repro.core.pipeline.AggressionDetectionPipeline`
    and for either :class:`~repro.engine.protocol.Engine`: all expose
    ``config``/``model``/``normalizer``/``bag_of_words``.
    """
    return snapshot_payload(
        source.config, source.model, source.normalizer, source.bag_of_words
    )


def payload_from_checkpoint(path: PathLike) -> Dict[str, Any]:
    """Snapshot payload extracted from a supervisor/pipeline checkpoint.

    Accepts a supervisor checkpoint (``engine`` section with its
    ``pipeline`` state, either engine) or a bare pipeline checkpoint;
    refuses the retired flat micro-batch layout as
    :func:`~repro.core.checkpoint.engine_from_dict` does.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SnapshotIntegrityError(
            f"checkpoint {path} is not JSON ({exc})"
        ) from exc
    if not isinstance(raw, dict):
        raise SnapshotIntegrityError(
            f"checkpoint {path} is not a JSON object"
        )
    section = raw.get("engine", raw)
    try:
        if isinstance(section, dict) and section is not raw:
            section = engine_pipeline_state(section)
        return {
            "snapshot_version": SNAPSHOT_VERSION,
            "config": section["config"],
            "model": section["model"],
            "normalizer": section["normalizer"],
            "bag_of_words": section["bag_of_words"],
        }
    except RetiredLayoutError as exc:
        raise SnapshotIntegrityError(f"checkpoint {path}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise SnapshotIntegrityError(
            f"checkpoint {path} has no pipeline state ({exc!r})"
        ) from exc


def _verify_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Structural verification beyond the digest."""
    version = payload.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotIntegrityError(
            f"unsupported snapshot version {version!r}"
        )
    for key in ("config", "model", "normalizer", "bag_of_words"):
        if key not in payload:
            raise SnapshotIntegrityError(f"snapshot missing {key!r} section")
    return payload


class SnapshotStore:
    """Versioned, checksummed snapshot directory (single writer).

    Args:
        root: directory holding ``MANIFEST.json`` + snapshot files
            (created on first publish).
        keep: how many snapshots to retain; older files and their
            manifest entries are garbage-collected at publish time.
        metrics: optional registry; the store counts
            ``snapshots_published_total``, ``snapshot_rejected_total``
            (verification failures seen by this process) and gauges
            ``snapshot_latest_version``.
    """

    def __init__(
        self,
        root: PathLike,
        keep: int = 5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.keep = keep
        self.metrics = metrics
        self.n_published = 0
        self.n_rejected = 0

    # -- manifest -------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_FILENAME

    def manifest(self) -> Dict[str, Any]:
        """The parsed manifest (empty shape when none exists yet)."""
        try:
            raw = self.manifest_path.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return {"format": 1, "latest": None, "snapshots": {}}
        try:
            payload = json.loads(raw)
        except ValueError:
            # A torn manifest would need a torn atomic rename; treat it
            # as empty rather than crashing the reader.
            logger.warning("unreadable manifest at %s", self.manifest_path)
            return {"format": 1, "latest": None, "snapshots": {}}
        payload.setdefault("snapshots", {})
        return payload

    def versions(self) -> List[int]:
        """Retained versions, oldest first."""
        return sorted(int(v) for v in self.manifest()["snapshots"])

    def latest_version(self) -> Optional[int]:
        """Newest published version, or ``None`` for an empty store."""
        latest = self.manifest().get("latest")
        return int(latest) if latest is not None else None

    def info(self, version: int) -> Optional[SnapshotInfo]:
        """Manifest entry for ``version``, or ``None`` if unknown."""
        entry = self.manifest()["snapshots"].get(str(version))
        if entry is None:
            return None
        return SnapshotInfo(
            version=version,
            path=self.root / entry["file"],
            sha256=entry["sha256"],
            n_bytes=int(entry["bytes"]),
            meta=dict(entry.get("meta", {})),
        )

    # -- publishing -----------------------------------------------------

    def publish(
        self,
        payload: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> SnapshotInfo:
        """Atomically publish ``payload`` as the next version.

        Order matters for readers: the snapshot file lands (durably)
        *before* the manifest names it, so a manifest entry always
        points at complete bytes. Returns the new :class:`SnapshotInfo`.
        """
        _verify_payload(payload)
        self.root.mkdir(parents=True, exist_ok=True)
        manifest = self.manifest()
        latest = manifest.get("latest")
        version = (int(latest) + 1) if latest is not None else 1
        filename = f"{_SNAPSHOT_PREFIX}{version:06d}{_SNAPSHOT_SUFFIX}"
        text = json.dumps(payload, separators=(",", ":"))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        n_bytes = atomic_write_text(self.root / filename, text)
        manifest["format"] = 1
        manifest["latest"] = version
        manifest["snapshots"][str(version)] = {
            "file": filename,
            "sha256": digest,
            "bytes": n_bytes,
            "meta": dict(meta or {}),
        }
        self._gc(manifest)
        atomic_write_text(
            self.manifest_path, json.dumps(manifest, separators=(",", ":"))
        )
        self.n_published += 1
        if self.metrics is not None:
            self.metrics.counter("snapshots_published_total").inc()
            self.metrics.gauge("snapshot_latest_version").set(version)
        logger.info(
            "published snapshot v%d (%d bytes, sha256 %s...)",
            version, n_bytes, digest[:12],
        )
        return SnapshotInfo(
            version=version,
            path=self.root / filename,
            sha256=digest,
            n_bytes=n_bytes,
            meta=dict(meta or {}),
        )

    def _gc(self, manifest: Dict[str, Any]) -> None:
        """Drop manifest entries and files beyond the retention bound."""
        retained = sorted(
            (int(v) for v in manifest["snapshots"]), reverse=True
        )
        for version in retained[self.keep:]:
            entry = manifest["snapshots"].pop(str(version))
            stale = self.root / entry["file"]
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            logger.debug("snapshot v%d garbage-collected", version)

    # -- verified reads -------------------------------------------------

    def load_verified(
        self, version: Optional[int] = None
    ) -> Tuple[SnapshotInfo, Dict[str, Any]]:
        """Load one version, verifying digest and structure.

        Raises :class:`SnapshotIntegrityError` when the version is
        unknown, the bytes do not match the manifest digest (torn or
        bit-flipped file), the JSON does not parse, or the payload
        misses a section.
        """
        if version is None:
            version = self.latest_version()
        if version is None:
            raise SnapshotIntegrityError("store has no snapshots")
        info = self.info(version)
        if info is None:
            raise SnapshotIntegrityError(f"unknown snapshot version {version}")
        try:
            raw = info.path.read_bytes()
        except OSError as exc:
            self._reject(version, f"unreadable: {exc}")
            raise SnapshotIntegrityError(
                f"snapshot v{version} unreadable: {exc}"
            ) from exc
        digest = hashlib.sha256(raw).hexdigest()
        if digest != info.sha256:
            self._reject(version, "sha256 mismatch")
            raise SnapshotIntegrityError(
                f"snapshot v{version} digest mismatch "
                f"(manifest {info.sha256[:12]}..., file {digest[:12]}...)"
            )
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            self._reject(version, f"unparseable: {exc}")
            raise SnapshotIntegrityError(
                f"snapshot v{version} does not parse: {exc}"
            ) from exc
        try:
            return info, _verify_payload(payload)
        except SnapshotIntegrityError as exc:
            self._reject(version, str(exc))
            raise

    def load_latest_verified(self) -> Tuple[SnapshotInfo, Dict[str, Any]]:
        """Newest snapshot that verifies, falling back over corrupt ones.

        Walks versions newest-first; each corrupt candidate is counted
        and WARNING-logged once, and the newest verifiable older
        version wins. Raises :class:`SnapshotIntegrityError` only when
        *no* retained version verifies.
        """
        versions = sorted(self.versions(), reverse=True)
        if not versions:
            raise SnapshotIntegrityError("store has no snapshots")
        failures: List[str] = []
        for version in versions:
            try:
                return self.load_verified(version)
            except SnapshotIntegrityError as exc:
                failures.append(f"v{version}: {exc}")
        raise SnapshotIntegrityError(
            "no verifiable snapshot in store: " + "; ".join(failures)
        )

    def _reject(self, version: int, reason: str) -> None:
        self.n_rejected += 1
        if self.metrics is not None:
            self.metrics.counter("snapshot_rejected_total").inc()
        logger.warning(
            "snapshot v%d refused (%s); falling back to the newest "
            "verifiable version", version, reason,
        )

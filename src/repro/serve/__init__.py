"""Real-time serving: snapshot store, hot swap, zero-drop degradation.

The serving layer closes the paper's loop — training continuously
*and* answering "is this tweet aggressive?" while the conversation is
live. It is split along the process boundary:

* :mod:`repro.serve.snapshot` — the checksummed, versioned
  :class:`SnapshotStore` the training side publishes into and the
  server polls (sha256 manifest, atomic+durable writes, corrupt-file
  fallback, bounded retention);
* :mod:`repro.serve.model` — :class:`ServingModel`, the
  deadline-aware scorer built from one verified snapshot (degrade
  tiers instead of errors);
* :mod:`repro.serve.admission` — bounded-waiting-room admission
  control, shedding by the ingest queue's policies and decision;
* :mod:`repro.serve.wire` — the socket layer: one selector-driven
  connection object per accepted socket, one bounded framer for HTTP
  and JSONL, pre-encoded reply heads;
* :mod:`repro.serve.server` — :class:`AggressionServer`, the
  HTTP/JSONL front end routing and scoring what ``wire`` frames, with
  hot swap, graceful drain, and full observability wiring.

Run one with ``python -m repro serve SNAPSHOT_DIR`` against a store
fed by ``repro run ... --publish-snapshot SNAPSHOT_DIR`` or
``repro snapshot publish``.
"""

from repro.serve.admission import AdmissionController, RequestShed
from repro.serve.model import ServingModel
from repro.serve.server import (
    AggressionServer,
    default_serve_slos,
    tweet_from_payload,
)
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotInfo,
    SnapshotIntegrityError,
    SnapshotStore,
    payload_from_checkpoint,
    payload_from_source,
    snapshot_payload,
)

__all__ = [
    "AdmissionController",
    "AggressionServer",
    "RequestShed",
    "ServingModel",
    "SNAPSHOT_VERSION",
    "SnapshotInfo",
    "SnapshotIntegrityError",
    "SnapshotStore",
    "default_serve_slos",
    "payload_from_checkpoint",
    "payload_from_source",
    "snapshot_payload",
    "tweet_from_payload",
]

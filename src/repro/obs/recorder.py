"""Flight recorder: a bounded in-memory ring of recent telemetry.

Always-on JSONL export (:class:`~repro.obs.export.TelemetrySink`) is
great for offline analysis but costs a write per event; the flight
recorder is the opposite trade: it keeps the last
:data:`DEFAULT_CAPACITY` events/spans/snapshots in a ring buffer at
near-zero cost and writes them out *only when something goes wrong* —
a quarantine, a worker-pool rebuild, a crash. The dump is a plain
JSONL file (one event per line, newest last) written atomically, so a
post-mortem always has the seconds leading up to the incident without
any always-on telemetry overhead.

The ``event(kind, **fields)`` signature intentionally matches
:class:`TelemetrySink`, so anything that can emit telemetry (the
overload controller, the SLO tracker, the supervisor) can tee into a
recorder unchanged.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, Optional, Union

PathLike = Union[str, Path]

#: Events retained in the ring buffer.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded event ring with on-incident JSONL dumps.

    Args:
        dump_dir: where :meth:`auto_dump` writes incident files; when
            ``None``, the recorder still buffers and :meth:`dump` can
            be pointed anywhere explicitly.
        capacity: ring size in events (oldest evicted first).
    """

    def __init__(
        self,
        dump_dir: Optional[PathLike] = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.dump_dir = Path(dump_dir) if dump_dir is not None else None
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0
        self._n_dumps = 0

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def n_dumps(self) -> int:
        """Incident dumps written so far."""
        return self._n_dumps

    def event(self, kind: str, **fields: Any) -> None:
        """Record one event (TelemetrySink-compatible signature)."""
        payload: Dict[str, Any] = {"event": kind, "seq": self._seq}
        payload.update(fields)
        self._seq += 1
        self._ring.append(payload)

    def dump(self, path: PathLike, reason: str = "manual") -> int:
        """Write the ring to ``path`` as JSONL; returns the byte size.

        The first line is a header event recording the dump ``reason``
        and ring occupancy; the buffer is left intact (a later incident
        still has its history).
        """
        from repro.core.checkpoint import atomic_write_text

        header = {
            "event": "flight_dump",
            "reason": reason,
            "n_events": len(self._ring),
            "capacity": self.capacity,
        }
        lines = [json.dumps(header, separators=(",", ":"))]
        lines.extend(
            json.dumps(entry, separators=(",", ":"))
            for entry in self._ring
        )
        text = "\n".join(lines) + "\n"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        size = atomic_write_text(path, text)
        self._n_dumps += 1
        return size

    def auto_dump(self, reason: str) -> Optional[Path]:
        """Dump into ``dump_dir`` on an incident; returns the file path.

        File names are ``flight-<seq>-<reason>.jsonl`` with a monotonic
        per-recorder sequence number, so repeated incidents in one run
        never overwrite each other. No-op (returns ``None``) when the
        recorder has no dump directory or nothing buffered.
        """
        if self.dump_dir is None or not self._ring:
            return None
        safe_reason = "".join(
            c if c.isalnum() or c in "-_" else "_" for c in reason
        )
        path = self.dump_dir / (
            f"flight-{self._n_dumps:04d}-{safe_reason}.jsonl"
        )
        self.dump(path, reason=reason)
        return path

"""Partition-task executors: serial and process pool.

A runner executes a list of zero-argument callables (one per data
partition) and reports one outcome per task, in order
(:meth:`Runner.run_with_deadline`, the one method a backend
implements; :meth:`Runner.run` returns the results or raises the first
failure). ``SerialRunner`` is the reference; ``ProcessPoolRunner``
achieves real multi-core execution at the price of pickling the task
closures, mirroring Spark's executor processes. There is no thread
runner: partitions are pure Python, so threads serialise on the GIL
(they measured slower than the serial runner) and, unlike a worker
process, a hung thread cannot be reclaimed.

A task that raises is re-raised as :class:`PartitionError` carrying the
partition index, so failures in pooled workers stay attributable. The
error is additionally classified as *transient* (worth retrying: lost
workers, I/O hiccups, anything raised as :class:`TransientWorkerError`)
or *fatal* (deterministic bugs or bad data, where a retry would fail
identically); the micro-batch engine's retry loop and the stream
supervisor only re-attempt transient failures.

Ownership: a runner created by the caller is closed by the caller
(use the context-manager form or ``close()``); the micro-batch engine
closes only runners it created itself — see
:class:`repro.engine.microbatch.MicroBatchEngine`.

Resident worker state: tasks that share heavyweight read-only driver
state (models, normalizer statistics, lexicons) wrap it in a
:class:`StateBroadcast` instead of carrying it per task. The broadcast
serializes its payload once per version — no matter how many tasks
reference it — and worker processes keep the last decoded payload in a
bounded module-level cache keyed by ``(key, version)``, so one batch's
partitions (and any retry attempts against the same state) deserialize
the driver state once per worker instead of once per task.

Zero-copy transport: under a process runner the encoded payload is
written once into a ``multiprocessing.shared_memory`` segment and the
pickled task carries only ``(key, version, segment name, size)`` — the
payload bytes never travel through the pool's task pipe, and each
worker maps the segment read-only and unpickles straight out of the
mapping. Segment lifecycle is explicit: the driver creates a segment
lazily on the first task pickle of a version, unlinks it when the
broadcast is superseded (version bump) or released (engine close), and
an ``atexit`` sweep unlinks anything a crashed driver left behind.
Workers attach, decode, and detach immediately; they never own
segments.
"""

from __future__ import annotations

import abc
import atexit
import itertools
import os
import pickle
import signal
import threading
import time
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

R = TypeVar("R")

Task = Callable[[], R]

RUNNER_KINDS = ("serial", "processes")


class TransientWorkerError(RuntimeError):
    """A retryable partition failure (injected faults, flaky workers).

    Raise this from partition code (or fault injectors) to mark a
    failure as transient: the resulting :class:`PartitionError` carries
    ``transient=True`` and retry loops will re-attempt the batch.
    """


#: Exception types classified as transient: environmental failures
#: (sockets, pipes, timeouts, lost pool workers) that a retry against
#: the same input can plausibly survive. Everything else — TypeError,
#: ValueError, arithmetic errors — is deterministic and fatal: the same
#: tweet would fail the same way on every attempt, so the fix is
#: quarantine (dead-letter queue), not retry.
TRANSIENT_ERROR_TYPES = (
    TransientWorkerError,
    ConnectionError,
    TimeoutError,
    EOFError,
    OSError,
)


def is_transient_error(exc: BaseException) -> bool:
    """Whether a partition failure is worth retrying."""
    if isinstance(exc, PartitionError):
        return exc.transient
    return isinstance(exc, TRANSIENT_ERROR_TYPES)


class PartitionError(RuntimeError):
    """A partition task failed; carries the failing partition's index.

    Pool executors surface worker exceptions without saying which task
    raised; wrapping every task execution in this error keeps failures
    attributable and picklable across process boundaries. ``transient``
    records the retry classification of the original exception
    (:func:`is_transient_error`).
    """

    def __init__(
        self, partition_index: int, message: str, transient: bool = False
    ) -> None:
        super().__init__(partition_index, message, transient)
        self.partition_index = partition_index
        self.message = message
        self.transient = transient

    def __str__(self) -> str:
        kind = "transient" if self.transient else "fatal"
        return f"partition {self.partition_index} failed ({kind}): {self.message}"


#: Per-task outcome classes reported by :meth:`Runner.run_with_deadline`.
#: ``ok`` carries a result; ``failed`` carries the task's own
#: :class:`PartitionError` (transient or fatal per the usual
#: classification); ``timed_out`` means the partition was still running
#: when the deadline expired; ``worker_lost`` means its worker process
#: died and the rebuild budget ran out before a clean re-run.
OUTCOME_OK = "ok"
OUTCOME_FAILED = "failed"
OUTCOME_TIMED_OUT = "timed_out"
OUTCOME_WORKER_LOST = "worker_lost"

#: How often the deadline loop re-checks futures, the clock, and the
#: speculation trigger. Small enough that deadlines land within ~50ms,
#: large enough that polling is invisible next to partition work.
_POLL_INTERVAL_S = 0.05

#: How often a pool worker checks that the driver that forked it is
#: still its parent.
_ORPHAN_POLL_S = 0.25


def _worker_init(driver: int) -> None:
    """Start-up of every pool worker: the driver owns its life.

    SIGINT and SIGTERM are ignored, so a Ctrl-C or TERM sent to the
    whole process group cannot kill a worker in the middle of the
    driver's graceful drain (and the driver's own signal handlers,
    inherited through fork, never run here). A daemon thread ends the
    worker once its parent changes: the driver died without closing
    the pool (SIGKILL, the OOM killer), and nothing else would.
    ``driver`` is the driver's pid, taken before the fork: a driver
    that dies before this runs has already handed the worker to another
    parent, which ``os.getppid()`` here would mistake for the driver.
    ``PR_SET_PDEATHSIG`` would fire when the forking *thread* exits,
    and a pipelined driver forks from a submit thread.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)

    def watch_parent() -> None:
        while os.getppid() == driver:
            time.sleep(_ORPHAN_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch_parent, name="orphan-watch", daemon=True
    ).start()


@dataclass
class TaskOutcome:
    """One partition task's fate under :meth:`Runner.run_with_deadline`."""

    partition_index: int
    status: str
    result: object = None
    error: Optional[PartitionError] = None
    duration_s: float = 0.0
    #: Whether the *winning* attempt was a speculative duplicate.
    speculative: bool = False

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK

    @property
    def retryable(self) -> bool:
        """Whether re-running this partition can plausibly succeed.

        Timeouts and lost workers are environmental by definition; a
        ``failed`` outcome defers to the wrapped error's transient flag.
        """
        if self.status in (OUTCOME_TIMED_OUT, OUTCOME_WORKER_LOST):
            return True
        return (
            self.status == OUTCOME_FAILED
            and self.error is not None
            and self.error.transient
        )

    def to_error(self) -> PartitionError:
        """The outcome as a raisable :class:`PartitionError`."""
        if self.error is not None:
            return self.error
        return PartitionError(
            self.partition_index,
            f"partition {self.status}",
            transient=self.status != OUTCOME_FAILED,
        )


@dataclass
class RunReport:
    """What :meth:`Runner.run_with_deadline` observed for one task set.

    ``outcomes`` keeps the input task order. The counters cover this
    call only; :class:`ProcessPoolRunner` additionally accumulates
    lifetime ``n_pool_rebuilds`` on the runner itself.
    """

    outcomes: List[TaskOutcome] = field(default_factory=list)
    n_speculative_launched: int = 0
    n_speculative_wins: int = 0
    n_pool_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def results(self) -> List:
        """All results in task order; raises the first non-ok outcome."""
        out = []
        for outcome in self.outcomes:
            if not outcome.ok:
                raise outcome.to_error()
            out.append(outcome.result)
        return out


def _validate_deadline_args(
    deadline_s: Optional[float], speculate_after: Optional[float]
) -> None:
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    if speculate_after is not None:
        if deadline_s is None:
            raise ValueError("speculate_after requires deadline_s")
        if not 0.0 < speculate_after <= 1.0:
            raise ValueError("speculate_after must be in (0, 1]")


#: Worker-resident broadcast cache: key -> (version, decoded payload),
#: in least-recently-used order. One entry per broadcast key (each new
#: version replaces the previous one), and the cache as a whole is
#: bounded at :data:`BROADCAST_CACHE_MAX` keys — a long-lived worker
#: pool shared by many engine lifetimes sheds dead broadcasters'
#: payloads instead of accumulating one entry per engine forever.
_BROADCAST_CACHE: "OrderedDict[str, Tuple[int, object]]" = OrderedDict()
_BROADCAST_LOCK = threading.Lock()
_BROADCAST_IDS = itertools.count()

#: Hard bound on worker-resident broadcast cache entries (keys). Live
#: broadcasters re-decode on the rare eviction miss; dead broadcasters
#: stop leaking.
BROADCAST_CACHE_MAX = 8

#: Driver-resident shared-memory segments: segment name -> SharedMemory.
#: Every entry is a segment this process created and must unlink; the
#: atexit sweep is the safety net for drivers that crash between
#: creating a segment and releasing its broadcast.
_LIVE_SEGMENTS: Dict[str, "shared_memory.SharedMemory"] = {}


def new_broadcast_key(prefix: str = "broadcast") -> str:
    """A process-unique key for a sequence of :class:`StateBroadcast`.

    Combines the driver's PID with a process-wide counter, so two
    broadcasters in the same driver (or drivers sharing a worker pool)
    can never alias each other's cache entries.
    """
    return f"{prefix}-{os.getpid()}-{next(_BROADCAST_IDS)}"


def broadcast_cache_size() -> int:
    """Number of broadcast keys currently cached in this process."""
    with _BROADCAST_LOCK:
        return len(_BROADCAST_CACHE)


def evict_broadcast(key: str) -> int:
    """Drop this process's cached payload for ``key``; returns cache size.

    Called locally when a broadcaster closes, and shipped to pool
    workers as a tombstone task (:meth:`Runner.evict_broadcast`) so a
    shared long-lived pool forgets a dead engine's state promptly
    rather than waiting for LRU pressure.
    """
    with _BROADCAST_LOCK:
        _BROADCAST_CACHE.pop(key, None)
        return len(_BROADCAST_CACHE)


def _cache_put(key: str, version: int, value: object) -> None:
    """Insert/refresh a cache entry, evicting the LRU key past the cap."""
    _BROADCAST_CACHE[key] = (version, value)
    _BROADCAST_CACHE.move_to_end(key)
    while len(_BROADCAST_CACHE) > BROADCAST_CACHE_MAX:
        _BROADCAST_CACHE.popitem(last=False)


def live_segment_names() -> List[str]:
    """Names of shared-memory segments this process currently owns."""
    return list(_LIVE_SEGMENTS)


def _release_segment(name: str) -> None:
    """Close and unlink one driver-owned segment (idempotent)."""
    segment = _LIVE_SEGMENTS.pop(name, None)
    if segment is None:
        return
    try:
        segment.close()
        segment.unlink()
    except (FileNotFoundError, OSError):  # already gone — fine
        pass


def _release_all_segments() -> None:
    """atexit sweep: unlink anything a crashed driver left behind."""
    for name in list(_LIVE_SEGMENTS):
        _release_segment(name)


atexit.register(_release_all_segments)


def _load_from_segment(name: str, size: int) -> object:
    """Attach a broadcast segment, unpickle straight from the mapping.

    The worker never copies the payload bytes: ``pickle.loads`` reads
    through a memoryview over the shared mapping. Attach happens at
    most once per ``(key, version)`` per worker — the decoded payload
    goes into the module cache and subsequent tasks hit that.

    Attaching re-registers the segment with the resource tracker, which
    pool workers share with the driver under the default fork start
    method — the duplicate registration dedups into the driver's own,
    and only the driver ever unlinks (explicitly unregistering its
    entry), so the tracker stays balanced.
    """
    segment = shared_memory.SharedMemory(name=name)
    try:
        view = segment.buf[:size]
        try:
            return pickle.loads(view)
        finally:
            view.release()
    finally:
        segment.close()


class StateBroadcast:
    """Versioned, read-only driver state shared by many partition tasks.

    The driver wraps one batch's heavyweight state (model, normalizer
    statistics, lexicon deltas, ...) in a broadcast and hands the *same*
    broadcast object to every partition task. Four properties make
    this cheap:

    * **The serial runner** never pickles the task, so
      :meth:`value` returns the live payload object directly — tasks
      must treat it as read-only (they already must, since sibling
      partitions share it).
    * **Pickling is once per version.** The payload is encoded lazily
      on the first task pickle and the bytes are reused for every
      subsequent task (and every retry attempt against the same state).
    * **Transport is zero-copy.** When shared memory is enabled (the
      default), the encoded bytes are written once into a
      ``multiprocessing.shared_memory`` segment and each task pickle
      carries only the segment's name — sibling tasks add O(1) bytes to
      the pool pipe instead of re-shipping the payload.
    * **Decoding is once per worker per version.** Worker processes
      map the segment, unpickle directly from the shared mapping, and
      cache the decoded payload keyed by ``(key, version)``; a worker
      running several partitions of the same batch deserializes the
      driver state once.

    Lifecycle: the segment belongs to the *driver*. Call
    :meth:`release` when the broadcast is superseded or its owner
    closes — the micro-batch engine does this on every version bump and
    in ``close()`` — and the module's ``atexit`` sweep unlinks whatever
    a crashed driver leaves. Workers attach and detach within one
    decode; they never unlink.

    The payload must not be ``None`` (that value flags "not yet
    decoded" on the worker side).
    """

    __slots__ = (
        "key", "version", "_value", "_encoded", "_segment_name",
        "_payload_size", "use_shared_memory", "_encode_seconds",
    )

    def __init__(
        self,
        key: str,
        version: int,
        value: object,
        use_shared_memory: bool = True,
    ) -> None:
        if value is None:
            raise ValueError("broadcast payload must not be None")
        self.key = key
        self.version = version
        self._value: Optional[object] = value
        self._encoded: Optional[bytes] = None
        self._segment_name: Optional[str] = None
        self._payload_size = 0
        self.use_shared_memory = use_shared_memory
        self._encode_seconds: Optional[float] = None

    @property
    def encode_seconds(self) -> Optional[float]:
        """Seconds spent pickling the payload (driver side, once per
        version); ``None`` until :meth:`_encode` has run — i.e. under
        the serial runner, where the payload is never encoded."""
        return self._encode_seconds

    @property
    def payload_bytes(self) -> Optional[int]:
        """Encoded payload size in bytes; ``None`` before encoding."""
        if self._encoded is not None:
            return len(self._encoded)
        if self._payload_size:
            return self._payload_size
        return None

    def value(self, metrics: Optional["MetricsRegistry"] = None) -> object:
        """The broadcast payload (live on the driver, cached on workers).

        When ``metrics`` (a partition-local registry) is given, the
        resolution path is recorded: ``broadcast_decode_total`` counts
        by ``source`` (``live``/``cache``/``segment``/``inline``) and
        ``broadcast_decode_seconds`` observes actual decode time (the
        live short-circuit costs nothing and books no histogram entry).
        """
        value = self._value
        if value is not None:
            if metrics is not None:
                metrics.counter(
                    "broadcast_decode_total", source="live"
                ).inc()
            return value
        t_start = time.perf_counter()
        source = "cache"
        with _BROADCAST_LOCK:
            cached = _BROADCAST_CACHE.get(self.key)
            if cached is not None and cached[0] == self.version:
                _BROADCAST_CACHE.move_to_end(self.key)
                value = cached[1]
            else:
                if self._segment_name is not None:
                    source = "segment"
                    value = _load_from_segment(
                        self._segment_name, self._payload_size
                    )
                else:
                    source = "inline"
                    assert self._encoded is not None
                    value = pickle.loads(self._encoded)
                _cache_put(self.key, self.version, value)
        self._value = value
        if metrics is not None:
            metrics.counter("broadcast_decode_total", source=source).inc()
            metrics.histogram("broadcast_decode_seconds").observe(
                time.perf_counter() - t_start
            )
        return value

    def _encode(self) -> bytes:
        encoded = self._encoded
        if encoded is None:
            t_start = time.perf_counter()
            encoded = pickle.dumps(self._value, protocol=pickle.HIGHEST_PROTOCOL)
            self._encode_seconds = time.perf_counter() - t_start
            self._encoded = encoded
        return encoded

    def _ensure_segment(self, encoded: bytes) -> Optional[str]:
        """Write the payload into a shared segment once (driver side)."""
        if self._segment_name is not None:
            return self._segment_name
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, len(encoded))
            )
            segment.buf[: len(encoded)] = encoded
        except (OSError, ValueError):
            # No usable /dev/shm (full, or exotic platform): fall back
            # to shipping the bytes inline with each task pickle.
            return None
        _LIVE_SEGMENTS[segment.name] = segment
        self._segment_name = segment.name
        self._payload_size = len(encoded)
        return segment.name

    def release(self) -> None:
        """Unlink the driver-owned segment (idempotent).

        Must be called by the broadcast's owner when the version is
        superseded or the owning engine closes. Workers that already
        decoded this version keep serving from their cache; a retry
        against a released version would re-pickle inline (it cannot
        happen in the engine, which releases only after the batch —
        including all retry attempts — completed).
        """
        name, self._segment_name = self._segment_name, None
        self._payload_size = 0
        if name is not None:
            _release_segment(name)

    def __getstate__(
        self,
    ) -> Tuple[str, int, Optional[bytes], Optional[str], int]:
        with _BROADCAST_LOCK:
            # The pool's feeder thread pickles tasks concurrently with
            # driver code; encode + segment creation must be one-shot.
            encoded = self._encode()
            segment_name = (
                self._ensure_segment(encoded)
                if self.use_shared_memory
                else None
            )
        if segment_name is not None:
            return (self.key, self.version, None, segment_name, len(encoded))
        return (self.key, self.version, encoded, None, len(encoded))

    def __setstate__(
        self, state: Tuple[str, int, Optional[bytes], Optional[str], int]
    ) -> None:
        (
            self.key,
            self.version,
            self._encoded,
            self._segment_name,
            self._payload_size,
        ) = state
        self._value = None
        self.use_shared_memory = self._segment_name is not None
        self._encode_seconds = None


def _round_up_segment(size: int) -> int:
    """Round a segment size up to a 64 KiB multiple.

    Tweet-block payloads drift a little from batch to batch; rounding
    the allocation means a pooled segment absorbs that jitter instead
    of being unlinked and re-created every time the payload grows by a
    few bytes.
    """
    return max(1, (size + 0xFFFF) & ~0xFFFF)


class SegmentPool:
    """Reusable driver-owned shared-memory segments for tweet blocks.

    A pipelined engine has at most two tweet blocks alive at once (the
    batch being merged and the batch in flight), so the pool keeps up
    to ``max_segments`` free segments and hands them back out:
    segment creation — an mmap plus a resource-tracker registration —
    happens a handful of times per engine lifetime instead of once per
    batch. Pooled segments stay registered in the module's live-segment
    table, so the ``atexit`` sweep still covers a crashed driver, and
    :meth:`close` unlinks everything the pool holds.
    """

    def __init__(self, max_segments: int = 2) -> None:
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self.max_segments = max_segments
        self._free: List["shared_memory.SharedMemory"] = []
        self._closed = False

    def acquire(self, size: int) -> Optional["shared_memory.SharedMemory"]:
        """A segment of at least ``size`` bytes, pooled or fresh.

        Returns ``None`` when shared memory is unavailable (no usable
        ``/dev/shm``); callers fall back to inline transport.
        """
        while self._free:
            segment = self._free.pop()
            if segment.size >= size:
                return segment
            # Too small to reuse; retire it and keep looking.
            _release_segment(segment.name)
        try:
            segment = shared_memory.SharedMemory(
                create=True, size=_round_up_segment(size)
            )
        except (OSError, ValueError):
            return None
        _LIVE_SEGMENTS[segment.name] = segment
        return segment

    def recycle(self, segment: "shared_memory.SharedMemory") -> None:
        """Return a segment for reuse (or unlink it past the bound)."""
        if self._closed or len(self._free) >= self.max_segments:
            _release_segment(segment.name)
        else:
            self._free.append(segment)

    def close(self) -> None:
        """Unlink every pooled segment (idempotent)."""
        self._closed = True
        while self._free:
            _release_segment(self._free.pop().name)


class TweetSlice:
    """One partition's tweets, resolvable driver- or worker-side.

    Driver-side (the serial runner, where tasks are never pickled)
    the slice wraps the live partition list and :meth:`resolve` returns
    it unchanged. Under a process runner the driver encodes the whole
    batch once into a :class:`TweetBlock` and each slice pickles to an
    O(1) ``(segment name, offset, length)`` descriptor; the worker
    attaches the segment, unpickles its partition straight out of the
    shared mapping, and detaches. When shared memory is unavailable the
    block falls back to inline transport — the descriptor then carries
    the partition's pickled payload itself.
    """

    __slots__ = ("_live", "_segment_name", "_offset", "_length", "_inline")

    def __init__(
        self,
        live: Optional[list] = None,
        segment_name: Optional[str] = None,
        offset: int = 0,
        length: int = 0,
        inline: Optional[bytes] = None,
    ) -> None:
        self._live = live
        self._segment_name = segment_name
        self._offset = offset
        self._length = length
        self._inline = inline

    @property
    def n_bytes(self) -> int:
        """Encoded transport size (0 for a live, never-encoded slice)."""
        if self._inline is not None:
            return len(self._inline)
        return self._length

    def resolve(self) -> list:
        """The partition's tweet list (decoded at most once)."""
        if self._live is not None:
            return self._live
        if self._segment_name is not None:
            segment = shared_memory.SharedMemory(name=self._segment_name)
            try:
                view = segment.buf[self._offset:self._offset + self._length]
                try:
                    value = pickle.loads(view)
                finally:
                    view.release()
            finally:
                segment.close()
        else:
            assert self._inline is not None
            value = pickle.loads(self._inline)
        self._live = value
        return value

    def __getstate__(
        self,
    ) -> Tuple[Optional[str], int, int, Optional[bytes]]:
        if self._segment_name is not None:
            return (self._segment_name, self._offset, self._length, None)
        if self._inline is not None:
            return (None, 0, 0, self._inline)
        # A live-only slice pickled directly (a custom pool runner that
        # never went through TweetBlock.encode): ship the bytes inline.
        return (
            None, 0, 0,
            pickle.dumps(self._live, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def __setstate__(
        self, state: Tuple[Optional[str], int, int, Optional[bytes]]
    ) -> None:
        self._live = None
        (self._segment_name, self._offset, self._length, self._inline) = state


class TweetBlock:
    """One micro-batch's tweets, encoded once for all partitions.

    :meth:`encode` pickles each partition's tweet list once and lays
    the payloads out back-to-back in a single pooled shared-memory
    segment; the block's ``slices`` are :class:`TweetSlice` descriptors
    that pickle to O(1) coordinates. N partitions therefore cost one
    encode pass and one segment write — not N tweet-list pickles
    through the pool's task pipe.

    Lifecycle mirrors :class:`StateBroadcast`: the segment is
    driver-owned, registered for the ``atexit`` sweep, and recycled
    into the owning :class:`SegmentPool` by :meth:`close`. Call
    ``close()`` only after the batch — including every retry and
    speculative attempt — has resolved: a recycled segment's buffer is
    overwritten by the next batch, which is safe only because late
    losing attempts have their results discarded.
    """

    __slots__ = ("slices", "n_bytes", "_segment", "_pool")

    def __init__(
        self,
        slices: List[TweetSlice],
        n_bytes: int,
        segment: Optional["shared_memory.SharedMemory"],
        pool: Optional[SegmentPool],
    ) -> None:
        self.slices = slices
        self.n_bytes = n_bytes
        self._segment = segment
        self._pool = pool

    @classmethod
    def live(cls, partitions: Sequence[list]) -> "TweetBlock":
        """A no-transport block: slices wrap the live partition lists.

        Used with runners that never pickle their tasks (serial) —
        resolution is a pointer dereference and ``n_bytes`` stays 0.
        """
        return cls([TweetSlice(live=list(p)) for p in partitions], 0, None, None)

    @classmethod
    def encode(
        cls,
        partitions: Sequence[list],
        pool: Optional[SegmentPool] = None,
    ) -> "TweetBlock":
        """Encode partition tweet lists into one shared segment."""
        payloads = [
            pickle.dumps(list(p), protocol=pickle.HIGHEST_PROTOCOL)
            for p in partitions
        ]
        total = sum(len(p) for p in payloads)
        segment = pool.acquire(total) if pool is not None else None
        if segment is None:
            slices = [TweetSlice(inline=payload) for payload in payloads]
            return cls(slices, total, None, None)
        offset = 0
        slices = []
        for payload in payloads:
            segment.buf[offset:offset + len(payload)] = payload
            slices.append(
                TweetSlice(
                    segment_name=segment.name,
                    offset=offset,
                    length=len(payload),
                )
            )
            offset += len(payload)
        return cls(slices, total, segment, pool)

    def close(self) -> None:
        """Recycle the segment into the pool (idempotent)."""
        segment, self._segment = self._segment, None
        if segment is not None and self._pool is not None:
            self._pool.recycle(segment)


class Runner(abc.ABC):
    """Executes partition tasks and returns results in input order.

    A backend implements one method, :meth:`run_with_deadline`;
    :meth:`run` is derived from it.
    """

    #: Whether this runner pickles tasks to ship them to workers. The
    #: micro-batch engine consults this to pick the tweet transport:
    #: pickling runners get a :class:`TweetBlock` (one shared-memory
    #: encode per batch, O(1) descriptors per task); in-process runners
    #: get live tweet lists. Custom backends that serialize tasks
    #: should set this to ``True`` to opt into the block transport.
    needs_pickled_tasks = False

    def run(self, tasks: Sequence[Task]) -> List:
        """Execute all tasks with no deadline; results keep input order.

        Raises:
            PartitionError: the first partition, in task order, whose
                outcome is not ``ok``; it names the failing partition
                and wraps the original message.
        """
        return self.run_with_deadline(tasks).results()

    @abc.abstractmethod
    def run_with_deadline(
        self,
        tasks: Sequence[Task],
        deadline_s: Optional[float] = None,
        speculate_after: Optional[float] = None,
    ) -> RunReport:
        """Execute all tasks, classifying each outcome instead of raising.

        One bad partition does not poison its siblings: every task gets
        a :class:`TaskOutcome` (``ok``, ``failed``, ``timed_out`` or
        ``worker_lost``) and the caller decides what to retry,
        speculate or quarantine.

        ``deadline_s`` bounds the whole task set (``None``: no
        deadline); ``speculate_after`` (a fraction of the deadline in
        ``(0, 1]``) asks pool runners to launch duplicate attempts for
        partitions still unresolved past that point — first finisher
        wins, the loser is cancelled or its result discarded.
        """

    def close(self) -> None:
        """Release any pooled resources (no-op by default)."""

    def evict_broadcast(self, key: str) -> None:
        """Forget a dead broadcaster's cached payload everywhere.

        The default covers in-process execution (the serial runner
        shares this process's cache); pool-backed runners additionally
        ship eviction tasks to their workers.
        """
        evict_broadcast(key)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SerialRunner(Runner):
    """Runs tasks one after another on the calling thread."""

    def run_with_deadline(
        self,
        tasks: Sequence[Task],
        deadline_s: Optional[float] = None,
        speculate_after: Optional[float] = None,
    ) -> RunReport:
        """In-process execution cannot preempt a running task, so the
        deadline and speculation arguments are validated but not
        enforced: outcomes here are only ever ``ok`` or ``failed``."""
        _validate_deadline_args(deadline_s, speculate_after)
        outcomes: List[TaskOutcome] = []
        for item in enumerate(tasks):
            started = time.perf_counter()
            try:
                result = _run_task(item)
            except PartitionError as exc:
                outcomes.append(
                    TaskOutcome(
                        item[0],
                        OUTCOME_FAILED,
                        error=exc,
                        duration_s=time.perf_counter() - started,
                    )
                )
            else:
                outcomes.append(
                    TaskOutcome(
                        item[0],
                        OUTCOME_OK,
                        result=result,
                        duration_s=time.perf_counter() - started,
                    )
                )
        return RunReport(outcomes=outcomes)


class ProcessPoolRunner(Runner):
    """Runs tasks on worker processes (tasks must be picklable).

    Workers are *persistent*: the pool is created lazily on the first
    run and survives across batches until :meth:`close` (or a rebuild
    after a worker death), so per-batch cost is task descriptors and
    results through the pool pipe — the decoded :class:`StateBroadcast`
    stays resident in each worker's cache and tweet payloads travel via
    :class:`TweetBlock` segments.

    ``evict_timeout_s`` bounds how long :meth:`evict_broadcast` waits on
    each worker's tombstone task. ``max_rebuilds_per_run`` caps how many
    times one :meth:`run_with_deadline` call replaces a broken pool
    before classifying the surviving partitions as ``worker_lost``;
    ``n_pool_rebuilds`` counts rebuilds over the runner's lifetime.
    """

    needs_pickled_tasks = True

    def __init__(
        self,
        n_processes: int = 4,
        evict_timeout_s: float = 5.0,
        max_rebuilds_per_run: int = 2,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if evict_timeout_s <= 0:
            raise ValueError("evict_timeout_s must be positive")
        if max_rebuilds_per_run < 0:
            raise ValueError("max_rebuilds_per_run must be >= 0")
        self.n_processes = n_processes
        self.evict_timeout_s = evict_timeout_s
        self.max_rebuilds_per_run = max_rebuilds_per_run
        self.n_pool_rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    @staticmethod
    def _ensure_tracker_running() -> None:
        """Start the multiprocessing resource tracker pre-fork.

        Workers attach broadcast segments, and attaching registers the
        segment with the process's resource tracker. If the tracker is
        already running when the pool forks (the default start method
        on Linux), every worker inherits and shares the driver's
        tracker: worker registrations dedup into the driver's own entry
        and the driver's unlink keeps the cache balanced. Without this,
        a worker whose fork predates the tracker spawns its *own*
        tracker, which then warns about (or worse, tries to clean)
        driver-owned segments when the worker exits.
        """
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - tracker internals vary
            pass

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._ensure_tracker_running()
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_processes, initializer=_worker_init,
                initargs=(os.getpid(),),
            )
        return self._pool

    def run_with_deadline(
        self,
        tasks: Sequence[Task],
        deadline_s: Optional[float] = None,
        speculate_after: Optional[float] = None,
    ) -> RunReport:
        """Deadline-aware execution with speculation and pool recovery.

        The driver polls futures, so one partition's fate never hides
        its siblings': each task resolves to ``ok`` or ``failed`` as its
        future completes, partitions still unresolved at the deadline
        (if any) become
        ``timed_out``, and a dead worker breaks only the *pool* — the
        completed siblings keep their results, the pool is rebuilt in
        place (broadcast segments in ``_LIVE_SEGMENTS`` are untouched,
        so workers re-attach the same driver state), and only the
        unresolved partitions are resubmitted, up to
        ``max_rebuilds_per_run`` times per call.

        With ``speculate_after`` set, partitions still unresolved past
        that fraction of the deadline get one duplicate attempt; the
        first finisher wins and the loser is cancelled (or, if already
        running, its result is discarded — tasks are pure, so the extra
        execution is wasted work, never corruption).

        If a timed-out partition's worker is still grinding when the
        call returns, the whole pool is abandoned (workers terminated)
        rather than handed, poisoned, to the next call; that abandonment
        counts as a pool rebuild.
        """
        _validate_deadline_args(deadline_s, speculate_after)
        n_tasks = len(tasks)
        outcomes: List[Optional[TaskOutcome]] = [None] * n_tasks
        report = RunReport(outcomes=outcomes)  # type: ignore[arg-type]
        if n_tasks == 0:
            return report
        started = time.perf_counter()
        speculate_at = (
            started + speculate_after * deadline_s
            if speculate_after is not None and deadline_s is not None
            else None
        )
        # Future -> (partition index, speculative attempt?, submit time).
        in_flight: Dict[Future, Tuple[int, bool, float]] = {}
        unresolved: Set[int] = set(range(n_tasks))
        speculated: Set[int] = set()
        to_submit: List[Tuple[int, bool]] = [(i, False) for i in range(n_tasks)]
        pool_broken = False
        rebuilds = 0

        def resolve(index: int, outcome: TaskOutcome) -> None:
            outcomes[index] = outcome
            unresolved.discard(index)

        while unresolved:
            if not pool_broken and to_submit:
                try:
                    pool = self._ensure_pool()
                    while to_submit:
                        index, speculative = to_submit[0]
                        future = pool.submit(_run_task, (index, tasks[index]))
                        to_submit.pop(0)
                        in_flight[future] = (
                            index, speculative, time.perf_counter()
                        )
                except (BrokenProcessPool, RuntimeError):
                    pool_broken = True
            if pool_broken:
                # In-flight results are lost with the pool; completed
                # partitions keep theirs. Rebuild and resubmit only the
                # unresolved ones — or give up on them past the budget.
                pool_broken = False
                in_flight.clear()
                # A surviving worker may still be busy; it ignores
                # SIGTERM, so the pool is abandoned, not drained.
                self._abandon_pool()
                if rebuilds >= self.max_rebuilds_per_run:
                    for index in sorted(unresolved):
                        outcomes[index] = TaskOutcome(
                            index,
                            OUTCOME_WORKER_LOST,
                            error=PartitionError(
                                index,
                                "worker lost and pool rebuild budget "
                                f"({self.max_rebuilds_per_run}) exhausted",
                                transient=True,
                            ),
                            duration_s=time.perf_counter() - started,
                        )
                    unresolved.clear()
                    break
                rebuilds += 1
                self.n_pool_rebuilds += 1
                report.n_pool_rebuilds += 1
                speculated -= unresolved
                to_submit = [(i, False) for i in sorted(unresolved)]
                continue
            now = time.perf_counter()
            if deadline_s is not None and now - started >= deadline_s:
                break
            timeout = _POLL_INTERVAL_S
            if deadline_s is not None:
                timeout = min(
                    timeout, max(0.001, started + deadline_s - now)
                )
            done, _ = wait(
                list(in_flight),
                timeout=timeout,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index, speculative, submitted = in_flight.pop(future)
                if index not in unresolved:
                    continue  # the sibling attempt already won
                duration = time.perf_counter() - submitted
                try:
                    result = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                except PartitionError as exc:
                    resolve(
                        index,
                        TaskOutcome(
                            index,
                            OUTCOME_FAILED,
                            error=exc,
                            duration_s=duration,
                            speculative=speculative,
                        ),
                    )
                except Exception as exc:  # pragma: no cover - defensive
                    resolve(
                        index,
                        TaskOutcome(
                            index,
                            OUTCOME_FAILED,
                            error=PartitionError(
                                index,
                                f"{type(exc).__name__}: {exc}",
                                transient=is_transient_error(exc),
                            ),
                            duration_s=duration,
                            speculative=speculative,
                        ),
                    )
                else:
                    resolve(
                        index,
                        TaskOutcome(
                            index,
                            OUTCOME_OK,
                            result=result,
                            duration_s=duration,
                            speculative=speculative,
                        ),
                    )
                    if speculative:
                        report.n_speculative_wins += 1
            # Cancel the losing sibling of any partition that resolved.
            for future in list(in_flight):
                if in_flight[future][0] not in unresolved:
                    future.cancel()
                    del in_flight[future]
            if (
                speculate_at is not None
                and time.perf_counter() >= speculate_at
            ):
                for index in sorted(unresolved - speculated):
                    speculated.add(index)
                    to_submit.append((index, True))
                    report.n_speculative_launched += 1

        # Deadline expiry (or budget exhaustion) path: classify the
        # leftovers and decide whether the pool survives this call.
        hung_worker = False
        for future in list(in_flight):
            index, _speculative, _submitted = in_flight.pop(future)
            if (
                index in unresolved
                and not future.cancel()
                and not future.done()
            ):
                hung_worker = True
        for index in sorted(unresolved):
            outcomes[index] = TaskOutcome(
                index,
                OUTCOME_TIMED_OUT,
                error=PartitionError(
                    index,
                    f"partition exceeded {deadline_s:.3f}s deadline",
                    transient=True,
                ),
                duration_s=time.perf_counter() - started,
            )
        unresolved.clear()
        if hung_worker:
            # A worker is still grinding an abandoned task; terminate
            # the pool rather than hand it, busy, to the next batch.
            self._abandon_pool()
            self.n_pool_rebuilds += 1
            report.n_pool_rebuilds += 1
        return report

    def _abandon_pool(self) -> None:
        """Tear down a pool whose workers may be hung (best effort).

        ``shutdown(wait=True)`` would block behind the hung task, so:
        cancel what's queued, kill the worker processes (they ignore
        SIGTERM, see :func:`_worker_init`), and let
        the next ``run`` build a fresh pool. Broadcast segments are
        driver-owned and survive untouched.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - executor internals vary
            pass
        for proc in processes:
            if proc.is_alive():
                proc.kill()
        for proc in processes:
            proc.join(timeout=1.0)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def evict_broadcast(self, key: str) -> None:
        evict_broadcast(key)
        pool = self._pool
        if pool is None:
            return
        # Best effort: one eviction task per worker slot. With a warm
        # pool each idle worker picks up one; a busy or partially-warm
        # pool may miss some workers, which the LRU bound then covers.
        try:
            futures = [
                pool.submit(evict_broadcast, key)
                for _ in range(self.n_processes)
            ]
        except Exception:
            # Eviction is an optimisation — a broken or shutting-down
            # pool must not turn engine close() into a failure.
            return
        for future in futures:
            try:
                future.result(timeout=self.evict_timeout_s)
            except Exception:
                # One hung or dying worker must not abort eviction on
                # the rest of the pool; the LRU bound covers the miss.
                continue


def make_runner(kind: str, n_workers: int = 4) -> Runner:
    """Build a runner from a string spec ("serial"/"processes")."""
    if kind == "serial":
        return SerialRunner()
    if kind == "processes":
        return ProcessPoolRunner(n_processes=n_workers)
    raise ValueError(
        f"unknown runner kind {kind!r}; expected one of {RUNNER_KINDS}"
    )


def _run_task(indexed: Tuple[int, Task]) -> object:
    """Top-level trampoline: crosses process boundaries, tags failures."""
    index, task = indexed
    try:
        return task()
    except PartitionError:
        raise
    except Exception as exc:
        raise PartitionError(
            index,
            f"{type(exc).__name__}: {exc}",
            transient=is_transient_error(exc),
        ) from exc

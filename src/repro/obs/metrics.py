"""Process-local metrics registry: counters, gauges, histograms.

The paper's headline claims are operational — per-micro-batch execution
time (Fig. 15), sustained throughput under scale-out (Fig. 16),
real-time alerting on the firehose — so the reproduction needs a
telemetry layer every subsystem reports into. This module provides the
primitives:

* :class:`Counter` — monotonically increasing float;
* :class:`Gauge` — point-in-time value (BoW lexicon size, clip ratio);
* :class:`Histogram` — count/sum/min/max plus streaming p50/p95/p99
  estimated with P² sketches
  (:class:`repro.streamml.stats.P2Quantile`), so no samples are ever
  stored;
* :class:`MetricsRegistry` — labeled children keyed by
  ``(name, labels)``, e.g. ``stage_seconds{engine="microbatch",
  stage="drain"}``;
* :class:`MetricsSnapshot` — an immutable, *mergeable* view of a
  registry. Partition tasks carry a fresh registry, observe locally,
  and ship a snapshot back; the driver folds snapshots into its global
  registry exactly like per-partition normalizer statistics fold via
  ``Normalizer.merge()``.

Merge semantics: counters add; histogram count/sum/min/max combine
exactly and quantile sketches combine with the count-weighted P² merge
(exact fields are associative, sketches approximately so); gauges keep
the maximum of the set values (they are point-in-time readings, and
max is the only associative, commutative choice that never invents a
value neither side reported).

This module deliberately imports only :mod:`repro.streamml.stats`, so
every other layer (core, engine, reliability, data) can depend on it
without cycles.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.streamml.stats import P2Quantile

#: Quantiles a histogram estimates by default (p50/p95/p99).
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]


def _label_key(labels: Dict[str, str]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (events, tweets, seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge")
        self.value += amount


class Gauge:
    """Point-in-time value; ``None`` until first set."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge relative to its current value (0 if unset)."""
        self.value = (self.value or 0.0) + amount


class Histogram:
    """Streaming distribution summary without stored samples.

    ``count``/``sum``/``min``/``max`` are exact and updated on every
    observation. Quantiles are P² sketches, optionally fed only every
    ``sketch_every``-th observation — the hot per-tweet paths use a
    small sampling factor so the sketch cost amortizes to well under a
    microsecond per tweet while count/sum stay exact.
    """

    __slots__ = ("count", "sum", "min", "max", "sketch_every",
                 "_sketches", "_since_sketch")

    def __init__(
        self,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        sketch_every: int = 1,
    ) -> None:
        if sketch_every < 1:
            raise ValueError("sketch_every must be >= 1")
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.sketch_every = sketch_every
        self._sketches: List[P2Quantile] = [
            P2Quantile(q) for q in quantiles
        ]
        self._since_sketch = 0

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._since_sketch += 1
        if self._since_sketch >= self.sketch_every:
            self._since_sketch = 0
            for sketch in self._sketches:
                sketch.update(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold several observations, in order, in one call."""
        for value in values:
            self.observe(value)

    def observe_repeated(self, value: float, n: int) -> None:
        """Fold ``n`` observations of one ``value`` in one call.

        For a cost measured once per block and booked per row (the
        amortised share). ``count`` and ``min``/``max`` are what ``n``
        :meth:`observe` calls would leave; ``sum`` grows by
        ``value * n`` — one rounding instead of ``n``. The sketches get
        ``value`` once if the call crosses a cadence boundary: a block
        is one sample (DESIGN.md §9 "Histogram amortisation").
        """
        if n <= 0:
            return
        self.count += n
        self.sum += value * n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        since = self._since_sketch + n
        if since < self.sketch_every:
            self._since_sketch = since
            return
        self._since_sketch = since % self.sketch_every
        for sketch in self._sketches:
            sketch.update(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations.

        ``nan`` when empty — an unobserved histogram has no mean, and a
        silent ``0.0`` reads as "instantaneous" in latency summaries.
        """
        if self.count == 0:
            return float("nan")
        return self.sum / self.count

    @property
    def quantiles(self) -> Tuple[float, ...]:
        """The quantile points this histogram estimates."""
        return tuple(s.quantile for s in self._sketches)


class MetricsSnapshot:
    """Immutable, mergeable, picklable view of a registry's state.

    ``merge`` is non-mutating and returns a new snapshot; counters and
    histogram count/sum/min/max combine exactly (and associatively),
    quantile sketches combine with the count-weighted P² merge, and
    gauges keep the maximum set value.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Dict[MetricKey, float],
        gauges: Dict[MetricKey, Optional[float]],
        histograms: Dict[MetricKey, "HistogramState"],
    ) -> None:
        self.counters = counters
        self.gauges = gauges
        self.histograms = histograms

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots into a new one (see class docstring)."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        gauges: Dict[MetricKey, Optional[float]] = dict(self.gauges)
        for key, value in other.gauges.items():
            mine = gauges.get(key)
            if mine is None:
                gauges[key] = value
            elif value is not None:
                gauges[key] = max(mine, value)
        histograms = {k: v.copy() for k, v in self.histograms.items()}
        for key, state in other.histograms.items():
            if key in histograms:
                histograms[key] = histograms[key].merge(state)
            else:
                histograms[key] = state.copy()
        return MetricsSnapshot(counters, gauges, histograms)

    # -- JSON round-trip ------------------------------------------------

    def as_dict(self, exact: bool = True) -> Dict[str, Any]:
        """JSON-safe view.

        With ``exact=True`` histogram entries include the full P² sketch
        state so :meth:`from_dict` reconstructs the snapshot bit-exactly
        (what checkpoints need); with ``exact=False`` only the quantile
        *estimates* are kept (compact telemetry events).
        """
        return {
            "counters": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self.counters.items())
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(self.gauges.items())
            ],
            "histograms": [
                dict(
                    {"name": name, "labels": dict(labels)},
                    **state.as_dict(exact=exact),
                )
                for (name, labels), state in sorted(self.histograms.items())
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot serialized by :meth:`as_dict(exact=True)`."""
        counters = {
            (e["name"], _label_key(e["labels"])): float(e["value"])
            for e in payload["counters"]
        }
        gauges = {
            (e["name"], _label_key(e["labels"])): (
                None if e["value"] is None else float(e["value"])
            )
            for e in payload["gauges"]
        }
        histograms = {
            (e["name"], _label_key(e["labels"])): HistogramState.from_dict(e)
            for e in payload["histograms"]
        }
        return cls(counters, gauges, histograms)


class HistogramState:
    """The mergeable state of one histogram child."""

    __slots__ = ("count", "sum", "min", "max", "sketch_every", "sketches")

    def __init__(
        self,
        count: int,
        sum_: float,
        min_: float,
        max_: float,
        sketch_every: int,
        sketches: List[P2Quantile],
    ) -> None:
        self.count = count
        self.sum = sum_
        self.min = min_
        self.max = max_
        self.sketch_every = sketch_every
        self.sketches = sketches

    @classmethod
    def of(cls, histogram: Histogram) -> "HistogramState":
        """Capture a histogram's current state (sketches copied)."""
        return cls(
            histogram.count,
            histogram.sum,
            histogram.min,
            histogram.max,
            histogram.sketch_every,
            [s.copy() for s in histogram._sketches],
        )

    def copy(self) -> "HistogramState":
        """Deep copy (sketches included), safe to merge into."""
        return HistogramState(
            self.count, self.sum, self.min, self.max, self.sketch_every,
            [s.copy() for s in self.sketches],
        )

    def merge(self, other: "HistogramState") -> "HistogramState":
        """Exact-field sums plus count-weighted P² sketch combination."""
        return HistogramState(
            self.count + other.count,
            self.sum + other.sum,
            min(self.min, other.min),
            max(self.max, other.max),
            self.sketch_every,
            [
                mine.merge(theirs)
                for mine, theirs in zip(self.sketches, other.sketches)
            ],
        )

    def quantile(self, q: float) -> Optional[float]:
        """Estimate for quantile ``q`` (raises KeyError if untracked)."""
        for sketch in self.sketches:
            if sketch.quantile == q:
                return sketch.value
        raise KeyError(f"histogram does not track quantile {q}")

    @property
    def mean(self) -> float:
        # nan when empty, matching Histogram.mean: no observations
        # means "no mean", never "zero seconds".
        if self.count == 0:
            return float("nan")
        return self.sum / self.count

    def as_dict(self, exact: bool = True) -> Dict[str, Any]:
        """JSON-safe view; ``exact=True`` embeds full sketch state."""
        payload: Dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "quantiles": {
                str(s.quantile): s.value for s in self.sketches
            },
        }
        if exact:
            payload["sketch_every"] = self.sketch_every
            payload["sketches"] = [_p2_state(s) for s in self.sketches]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HistogramState":
        if "sketches" not in payload:
            raise ValueError(
                "histogram was serialized without exact sketch state "
                "(as_dict(exact=False)); cannot reconstruct"
            )
        count = int(payload["count"])
        return cls(
            count,
            float(payload["sum"]),
            math.inf if payload["min"] is None else float(payload["min"]),
            -math.inf if payload["max"] is None else float(payload["max"]),
            int(payload["sketch_every"]),
            [_p2_restore(s) for s in payload["sketches"]],
        )


def _p2_state(sketch: P2Quantile) -> Dict[str, Any]:
    return {
        "quantile": sketch.quantile,
        "count": sketch.count,
        "initial": list(sketch._initial),
        "q": list(sketch._q),
        "n": list(sketch._n),
        "np": list(sketch._np),
        "dn": list(sketch._dn),
    }


def _p2_restore(payload: Dict[str, Any]) -> P2Quantile:
    sketch = P2Quantile(float(payload["quantile"]))
    sketch.count = int(payload["count"])
    sketch._initial = [float(v) for v in payload["initial"]]
    sketch._q = [float(v) for v in payload["q"]]
    sketch._n = [float(v) for v in payload["n"]]
    sketch._np = [float(v) for v in payload["np"]]
    sketch._dn = [float(v) for v in payload["dn"]]
    return sketch


class MetricsRegistry:
    """Process-local registry of labeled counters, gauges, histograms.

    Children are keyed by ``(name, labels)``; a name is bound to one
    metric kind on first use and later conflicting registrations raise.
    ``snapshot()`` captures the full state; ``merge_snapshot()`` folds a
    partition-side snapshot in (the driver-side analogue of
    ``Normalizer.merge``); ``restore()`` loads a checkpointed snapshot
    *in place*, preserving the identity of live metric objects so
    hot-path code holding direct references keeps working.
    """

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        self._kinds: Dict[str, str] = {}

    # -- creation / lookup ---------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        bound = self._kinds.setdefault(name, kind)
        if bound != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {bound}"
            )

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter child for ``name``/``labels``."""
        self._claim(name, "counter")
        key = (name, _label_key(labels))
        child = self._counters.get(key)
        if child is None:
            child = self._counters[key] = Counter()
        return child

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge child for ``name``/``labels``."""
        self._claim(name, "gauge")
        key = (name, _label_key(labels))
        child = self._gauges.get(key)
        if child is None:
            child = self._gauges[key] = Gauge()
        return child

    def histogram(
        self,
        name: str,
        *,
        quantiles: Iterable[float] = DEFAULT_QUANTILES,
        sketch_every: int = 1,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram child for ``name``/``labels``.

        ``quantiles`` and ``sketch_every`` apply only when the child is
        first created.
        """
        self._claim(name, "histogram")
        key = (name, _label_key(labels))
        child = self._histograms.get(key)
        if child is None:
            child = self._histograms[key] = Histogram(
                quantiles=quantiles, sketch_every=sketch_every
            )
        return child

    # -- reads ----------------------------------------------------------

    def counter_value(self, name: str, **labels: str) -> float:
        """A counter child's value (0 when it does not exist)."""
        child = self._counters.get((name, _label_key(labels)))
        return 0.0 if child is None else child.value

    def gauge_value(self, name: str, **labels: str) -> Optional[float]:
        """A gauge child's value (``None`` when unset or missing)."""
        child = self._gauges.get((name, _label_key(labels)))
        return None if child is None else child.value

    def total(self, name: str, **label_filter: str) -> float:
        """Sum a counter family across children matching the filter.

        ``total("tweets_quarantined_total")`` sums every child;
        ``total("tweets_quarantined_total", engine="microbatch")`` sums
        only children carrying that label value.
        """
        wanted = set(_label_key(label_filter))
        return sum(
            child.value
            for (metric, labels), child in self._counters.items()
            if metric == name and wanted.issubset(labels)
        )

    # -- snapshot / merge / restore --------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Capture the full registry state (sketches copied)."""
        return MetricsSnapshot(
            {key: c.value for key, c in self._counters.items()},
            {key: g.value for key, g in self._gauges.items()},
            {key: HistogramState.of(h) for key, h in self._histograms.items()},
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a (partition-side) snapshot into the live registry."""
        for (name, labels), value in snapshot.counters.items():
            self._claim(name, "counter")
            self.counter(name, **dict(labels)).inc(value)
        for (name, labels), value in snapshot.gauges.items():
            if value is None:
                continue
            gauge = self.gauge(name, **dict(labels))
            if gauge.value is None or value > gauge.value:
                gauge.set(value)
        for (name, labels), state in snapshot.histograms.items():
            hist = self.histogram(
                name,
                quantiles=[s.quantile for s in state.sketches],
                sketch_every=state.sketch_every,
                **dict(labels),
            )
            merged = HistogramState.of(hist).merge(state)
            _load_histogram(hist, merged)

    def restore(self, snapshot: MetricsSnapshot) -> None:
        """Load a checkpointed snapshot, keeping live object identity.

        Children present in the registry but absent from the snapshot
        are reset to their empty state; children in the snapshot are
        created on demand. Hot paths that cached direct references to
        counters/histograms (the pipeline does) stay valid.
        """
        for key, counter in self._counters.items():
            counter.value = snapshot.counters.get(key, 0.0)
        for (name, labels), value in snapshot.counters.items():
            if (name, labels) not in self._counters:
                self.counter(name, **dict(labels)).value = value
        for key, gauge in self._gauges.items():
            gauge.value = snapshot.gauges.get(key)
        for (name, labels), value in snapshot.gauges.items():
            if (name, labels) not in self._gauges:
                self.gauge(name, **dict(labels)).value = value
        for key, hist in self._histograms.items():
            state = snapshot.histograms.get(key)
            if state is None:
                _load_histogram(
                    hist,
                    HistogramState(
                        0, 0.0, math.inf, -math.inf, hist.sketch_every,
                        [P2Quantile(q) for q in hist.quantiles],
                    ),
                )
            else:
                _load_histogram(hist, state)
        for (name, labels), state in snapshot.histograms.items():
            if (name, labels) not in self._histograms:
                hist = self.histogram(
                    name,
                    quantiles=[s.quantile for s in state.sketches],
                    sketch_every=state.sketch_every,
                    **dict(labels),
                )
                _load_histogram(hist, state)


def _load_histogram(histogram: Histogram, state: HistogramState) -> None:
    histogram.count = state.count
    histogram.sum = state.sum
    histogram.min = state.min
    histogram.max = state.max
    histogram.sketch_every = state.sketch_every
    histogram._sketches = [s.copy() for s in state.sketches]
    histogram._since_sketch = 0

"""Counter/gauge/histogram semantics and snapshot merge/restore."""

from __future__ import annotations

import math
import random

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramState,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.streamml.stats import percentile


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_unset_until_first_write(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(7)
        assert gauge.value == 7.0

    def test_inc_dec_relative_to_zero_when_unset(self):
        gauge = Gauge()
        gauge.inc(3)
        gauge.inc(-1)
        assert gauge.value == 2.0


class TestHistogram:
    def test_exact_fields(self):
        hist = Histogram()
        for value in (3.0, 1.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert math.isnan(hist.mean)
        assert HistogramState.of(hist).quantile(0.5) is None

    def test_unknown_quantile_raises(self):
        with pytest.raises(KeyError):
            HistogramState.of(Histogram()).quantile(0.25)

    def test_p2_quantiles_track_sorted_reference(self):
        rng = random.Random(17)
        samples = [rng.lognormvariate(0.0, 1.0) for _ in range(5000)]
        hist = Histogram()
        for value in samples:
            hist.observe(value)
        for q in (0.5, 0.95, 0.99):
            exact = percentile(samples, 100 * q)
            estimate = HistogramState.of(hist).quantile(q)
            assert estimate == pytest.approx(exact, rel=0.15)

    def test_sketch_every_keeps_exact_fields_exact(self):
        rng = random.Random(5)
        samples = [rng.random() for _ in range(4000)]
        sampled = Histogram(sketch_every=8)
        for value in samples:
            sampled.observe(value)
        assert sampled.count == len(samples)
        assert sampled.sum == pytest.approx(sum(samples))
        # Uniform data: the thinned sketch stays close to the truth.
        assert HistogramState.of(sampled).quantile(0.5) == pytest.approx(
            0.5, abs=0.08
        )

    def test_sketch_every_must_be_positive(self):
        with pytest.raises(ValueError):
            Histogram(sketch_every=0)

    @pytest.mark.parametrize("sketch_every", [1, 8])
    def test_observe_repeated_matches_a_loop_of_observes(self, sketch_every):
        # Interleaved with plain observes so the sketch cadence has to
        # carry its remainder across calls in both directions. The exact
        # fields and the cadence are a loop's; the sketches get the
        # booked value once per call that crosses a cadence boundary.
        schedule = [(0.25, 3), (0.5, 0), (0.125, 21), (2.0, 1), (0.75, 500)]
        looped = Histogram(sketch_every=sketch_every)
        booked = Histogram(sketch_every=sketch_every)
        sketched = []
        for value, n in schedule:
            if n and looped._since_sketch + n >= sketch_every:
                sketched.append(value)
            for _ in range(n):
                looped.observe(value)
            if looped._since_sketch + 1 >= sketch_every:
                sketched.append(1.5)
            looped.observe(1.5)
            booked.observe_repeated(value, n)
            booked.observe(1.5)
        assert booked.count == looped.count == 525 + len(schedule)
        assert (booked.min, booked.max) == (looped.min, looped.max)
        assert booked._since_sketch == looped._since_sketch
        reference = Histogram()
        reference.observe_many(sketched)
        assert [s.value for s in booked._sketches] == [
            s.value for s in reference._sketches
        ]
        assert [s.count for s in booked._sketches] == [len(sketched)] * 3
        # One rounding per call instead of n: the block's measured total.
        assert booked.sum == pytest.approx(looped.sum, rel=1e-12)

    def test_observe_repeated_books_the_measured_total(self):
        histogram = Histogram()
        histogram.observe_repeated(0.3 / 7, 7)
        assert histogram.sum == pytest.approx(0.3, rel=1e-15)
        assert histogram.mean == pytest.approx(0.3 / 7)


class TestRegistry:
    def test_children_keyed_by_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("events_total", kind="a")
        b = registry.counter("events_total", kind="b")
        assert a is not b
        a.inc(2)
        assert registry.counter_value("events_total", kind="a") == 2.0
        assert registry.counter_value("events_total", kind="b") == 0.0

    def test_same_labels_return_same_child(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")

    def test_name_bound_to_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_total_sums_label_children(self):
        registry = MetricsRegistry()
        registry.counter("q_total", engine="a", stage="s1").inc(1)
        registry.counter("q_total", engine="a", stage="s2").inc(2)
        registry.counter("q_total", engine="b", stage="s1").inc(4)
        assert registry.total("q_total") == 7.0
        assert registry.total("q_total", engine="a") == 3.0
        assert registry.total("q_total", engine="b", stage="s1") == 4.0
        assert registry.total("missing_total") == 0.0

    def test_reads_of_missing_children_are_safe(self):
        registry = MetricsRegistry()
        assert registry.counter_value("nope") == 0.0
        assert registry.gauge_value("nope") is None


def _populated_registry(seed=1, n=500):
    rng = random.Random(seed)
    registry = MetricsRegistry()
    tweets = registry.counter("tweets_total")
    size = registry.gauge("bow_size")
    latency = registry.histogram("latency_seconds")
    for _ in range(n):
        tweets.inc()
        size.set(rng.randrange(100, 200))
        latency.observe(rng.expovariate(10.0))
    return registry


class TestSnapshotMergeRestore:
    def test_split_stream_merge_matches_single_pass(self):
        rng = random.Random(3)
        samples = [rng.expovariate(1.0) for _ in range(2000)]
        whole, left, right = Histogram(), Histogram(), Histogram()
        for value in samples:
            whole.observe(value)
        for value in samples[:900]:
            left.observe(value)
        for value in samples[900:]:
            right.observe(value)

        reg_whole, reg_left, reg_right = (
            MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        )
        for reg, hist in (
            (reg_whole, whole), (reg_left, left), (reg_right, right)
        ):
            target = reg.histogram("h")
            target.count = hist.count
            target.sum = hist.sum
            target.min = hist.min
            target.max = hist.max
            target._sketches = hist._sketches
        reg_left.merge_snapshot(reg_right.snapshot())
        merged = reg_left.histogram("h")
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)
        assert merged.min == whole.min
        assert merged.max == whole.max
        # Count-weighted sketch merge: approximate but close.
        assert HistogramState.of(merged).quantile(0.5) == pytest.approx(
            percentile(samples, 50), rel=0.2
        )

    def test_merge_counters_add_and_gauges_take_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(5)
        b.gauge("g").set(9)
        b.gauge("only_b").set(1)
        a.merge_snapshot(b.snapshot())
        assert a.counter_value("c") == 5.0
        assert a.gauge_value("g") == 9.0
        assert a.gauge_value("only_b") == 1.0

    def test_snapshot_roundtrips_through_json_dict(self):
        registry = _populated_registry()
        snap = registry.snapshot()
        rebuilt = MetricsSnapshot.from_dict(snap.as_dict(exact=True))
        assert rebuilt.counters == snap.counters
        assert rebuilt.gauges == snap.gauges
        for key, state in snap.histograms.items():
            other = rebuilt.histograms[key]
            assert other.count == state.count
            assert other.sum == state.sum
            assert other.quantile(0.95) == state.quantile(0.95)

    def test_compact_dict_cannot_rebuild(self):
        snap = _populated_registry().snapshot()
        with pytest.raises(ValueError):
            MetricsSnapshot.from_dict(snap.as_dict(exact=False))

    def test_restore_preserves_live_object_identity(self):
        registry = _populated_registry()
        counter = registry.counter("tweets_total")
        hist = registry.histogram("latency_seconds")
        snap = registry.snapshot()
        counter.inc(100)
        hist.observe(99.0)
        registry.restore(snap)
        assert registry.counter("tweets_total") is counter
        assert registry.histogram("latency_seconds") is hist
        assert counter.value == snap.counters[("tweets_total", ())]
        assert hist.max < 99.0
        counter.inc()  # the live reference still feeds the registry
        assert registry.counter_value("tweets_total") == counter.value

    def test_restore_resets_children_missing_from_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("kept").inc(1)
        snap = registry.snapshot()
        registry.counter("extra").inc(5)
        registry.histogram("extra_h").observe(1.0)
        registry.restore(snap)
        assert registry.counter_value("extra") == 0.0
        assert registry.histogram("extra_h").count == 0
        assert math.isinf(registry.histogram("extra_h").min)

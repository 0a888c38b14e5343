"""Tests for the firehose workload composition."""

from __future__ import annotations

import itertools

import pytest

from repro.data.firehose import ArrivalSchedule, FirehoseWorkload


class TestFirehoseWorkload:
    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            FirehoseWorkload(n_unlabeled=-1)
        with pytest.raises(ValueError):
            FirehoseWorkload(n_unlabeled=0, n_labeled=0)

    def test_total_and_fraction(self):
        workload = FirehoseWorkload(n_unlabeled=900, n_labeled=100)
        assert workload.n_unlabeled + workload.n_labeled == 1000
        assert len(list(workload.stream())) == 1000

    def test_stream_mix(self):
        workload = FirehoseWorkload(n_unlabeled=600, n_labeled=200, seed=5)
        tweets = list(workload.stream())
        assert len(tweets) == 800
        labeled = sum(1 for t in tweets if t.is_labeled())
        assert labeled == 200

    def test_timestamp_order(self):
        workload = FirehoseWorkload(n_unlabeled=400, n_labeled=150, seed=5)
        times = [t.created_at for t in workload.stream()]
        assert times == sorted(times)

    def test_streams_carry_distinct_tweets(self):
        workload = FirehoseWorkload(n_unlabeled=300, n_labeled=300, seed=7)
        labeled_texts = {t.text for t in workload.labeled_stream()}
        unlabeled_texts = {t.text for t in workload.unlabeled_stream()}
        # Different seeds: overlap should be far from total.
        assert len(labeled_texts & unlabeled_texts) < len(labeled_texts) / 2

    def test_lazy_generation(self):
        # A huge workload must be streamable without materialization.
        workload = FirehoseWorkload(n_unlabeled=5_000_000, n_labeled=86_000)
        head = list(itertools.islice(workload.stream(), 100))
        assert len(head) == 100

    def test_unlabeled_only(self):
        workload = FirehoseWorkload(n_unlabeled=50, n_labeled=0)
        tweets = list(workload.stream())
        assert len(tweets) == 50
        assert all(not t.is_labeled() for t in tweets)

    def test_pipeline_consumes_mix(self):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import AggressionDetectionPipeline

        workload = FirehoseWorkload(n_unlabeled=700, n_labeled=700, seed=9)
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        result = pipeline.process_stream(workload.stream())
        assert result.n_labeled == 700
        assert result.n_unlabeled == 700
        assert result.n_alerts > 0


class TestArrivalSchedule:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ArrivalSchedule(rate_hz=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate_hz=100.0, shape="sawtooth")
        with pytest.raises(ValueError):
            ArrivalSchedule(rate_hz=100.0, burst_factor=1.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate_hz=100.0, period_s=0.0)
        with pytest.raises(ValueError):
            ArrivalSchedule(rate_hz=100.0, burst_duty=1.0)
        # duty * factor must leave a positive off-burst rate.
        with pytest.raises(ValueError):
            ArrivalSchedule(
                rate_hz=100.0,
                shape="bursty",
                burst_factor=4.0,
                burst_duty=0.25,
            )

    def test_uniform_is_an_exact_metronome(self):
        schedule = ArrivalSchedule(rate_hz=50.0, shape="uniform")
        times = list(itertools.islice(schedule.times(), 10))
        assert times == pytest.approx([(i + 1) / 50.0 for i in range(10)])

    @pytest.mark.parametrize("shape", ["uniform", "poisson", "bursty"])
    def test_deterministic_given_seed(self, shape):
        def sample():
            schedule = ArrivalSchedule(rate_hz=200.0, shape=shape, seed=7)
            return list(itertools.islice(schedule.times(), 500))

        assert sample() == sample()

    @pytest.mark.parametrize("shape", ["uniform", "poisson", "bursty"])
    def test_times_non_decreasing(self, shape):
        schedule = ArrivalSchedule(rate_hz=500.0, shape=shape, seed=3)
        times = list(itertools.islice(schedule.times(), 2000))
        assert all(b >= a for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("shape", ["poisson", "bursty"])
    def test_mean_rate_tracks_target(self, shape):
        # Bursty modulation redistributes arrivals within each period
        # but must leave the long-run mean at rate_hz.
        schedule = ArrivalSchedule(rate_hz=100.0, shape=shape, seed=11)
        times = list(itertools.islice(schedule.times(), 8000))
        observed = len(times) / times[-1]
        assert observed == pytest.approx(100.0, rel=0.05)

    def test_bursty_peaks_above_mean_inside_burst_window(self):
        schedule = ArrivalSchedule(
            rate_hz=100.0,
            shape="bursty",
            burst_factor=4.0,
            period_s=10.0,
            burst_duty=0.2,
            seed=11,
        )
        times = list(itertools.islice(schedule.times(), 20000))
        in_burst = sum(1 for t in times if (t % 10.0) < 2.0)
        # 20% of the time carries burst_factor * duty = 80% of traffic.
        assert in_burst / len(times) == pytest.approx(0.8, abs=0.05)

    def test_timed_stream_pairs_every_tweet(self):
        workload = FirehoseWorkload(n_unlabeled=80, n_labeled=20, seed=5)
        schedule = ArrivalSchedule(rate_hz=100.0, seed=2)
        pairs = list(schedule.assign(workload.stream()))
        assert len(pairs) == 100
        arrivals = [arrival for _, arrival in pairs]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert {t.tweet_id for t, _ in pairs} == {
            t.tweet_id for t in workload.stream()
        }

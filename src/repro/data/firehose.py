"""Firehose-style workload composition for scalability experiments.

The paper's scaling study (§V-E) feeds each configuration "a fixed
number of unlabeled tweets (ranged from 250k to 2m) intermixed with the
86k labeled tweets". :class:`FirehoseWorkload` builds exactly that
mixture: a large unlabeled stream (same synthetic tweet model, labels
stripped) interleaved uniformly with a labeled stream, in timestamp
order, generated lazily so multi-million-tweet workloads never
materialize in memory.

For overload experiments the workload can also be *timed*:
:class:`ArrivalSchedule` assigns each tweet a simulated arrival
timestamp — uniform, Poisson, or bursty (square-wave rate modulation,
the shape of real aggression spikes around events) — and
``schedule.assign(workload.stream())`` yields ``(tweet, arrival_s)``
pairs ready for closed-loop replay through a bounded ingest queue.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Optional, Tuple

from repro.data.loader import (
    IngestStats,
    interleave_streams,
    sanitize_stream,
    strip_labels,
)
from repro.data.synthetic import (
    DEFAULT_START_TIME,
    AbusiveDatasetGenerator,
    DriftConfig,
    NoiseConfig,
)
from repro.data.tweet import Tweet

#: Arrival-schedule shapes, in documentation order.
ARRIVAL_SHAPES = ("uniform", "poisson", "bursty")


class ArrivalSchedule:
    """Deterministic simulated arrival times at a target mean rate.

    Shapes:

    * ``uniform`` — exact ``1/rate`` spacing (a metronome; useful as a
      control arm);
    * ``poisson`` — exponential inter-arrival gaps drawn from a seeded
      RNG (memoryless traffic, the classic firehose model);
    * ``bursty`` — square-wave rate modulation: within each ``period_s``
      window the first ``burst_duty`` fraction runs at
      ``burst_factor``× the base rate and the remainder runs at the
      complementary reduced rate, so the *mean* rate stays ``rate_hz``
      while peaks overload a server provisioned for the mean. Gaps are
      Poisson within each regime.

    All shapes are pure functions of ``(seed, shape, parameters)`` —
    replaying a schedule yields bit-identical timestamps, which the
    checkpoint-resume equivalence tests rely on.

    Args:
        rate_hz: long-run mean arrival rate (tweets/second).
        shape: one of :data:`ARRIVAL_SHAPES`.
        burst_factor: peak-to-mean rate ratio for ``bursty`` (> 1).
        period_s: burst cycle length in seconds (``bursty`` only).
        burst_duty: fraction of each period spent in the burst regime.
        seed: RNG seed for the stochastic shapes.
    """

    def __init__(
        self,
        rate_hz: float,
        shape: str = "poisson",
        burst_factor: float = 4.0,
        period_s: float = 10.0,
        burst_duty: float = 0.2,
        seed: int = 7,
    ) -> None:
        if rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if shape not in ARRIVAL_SHAPES:
            raise ValueError(
                f"unknown arrival shape {shape!r}; known: {ARRIVAL_SHAPES}"
            )
        if burst_factor <= 1.0:
            raise ValueError("burst_factor must be > 1")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        if not 0.0 < burst_duty < 1.0:
            raise ValueError("burst_duty must be in (0, 1)")
        # The off-burst regime must absorb the burst excess while
        # keeping the mean at rate_hz: duty*factor + (1-duty)*off = 1.
        off_scale = (1.0 - burst_duty * burst_factor) / (1.0 - burst_duty)
        if shape == "bursty" and off_scale <= 0:
            raise ValueError(
                "burst_factor * burst_duty must stay < 1 so the off-burst "
                "rate remains positive"
            )
        self.rate_hz = rate_hz
        self.shape = shape
        self.burst_factor = burst_factor
        self.period_s = period_s
        self.burst_duty = burst_duty
        self.seed = seed
        self._off_scale = off_scale

    def _rate_at(self, t: float) -> float:
        """Instantaneous rate at simulated time ``t`` (bursty shape)."""
        phase = math.fmod(t, self.period_s) / self.period_s
        scale = (
            self.burst_factor if phase < self.burst_duty else self._off_scale
        )
        return self.rate_hz * scale

    def times(self) -> Iterator[float]:
        """Lazy, endless stream of non-decreasing arrival timestamps."""
        rng = random.Random(self.seed)
        t = 0.0
        if self.shape == "uniform":
            step = 1.0 / self.rate_hz
            while True:
                t += step
                yield t
        elif self.shape == "poisson":
            while True:
                t += rng.expovariate(self.rate_hz)
                yield t
        else:  # bursty
            while True:
                t += rng.expovariate(self._rate_at(t))
                yield t

    def assign(
        self, tweets: Iterable[Tweet]
    ) -> Iterator[Tuple[Tweet, float]]:
        """Pair each tweet with its simulated arrival timestamp."""
        return zip(tweets, self.times())


class FirehoseWorkload:
    """Labeled + unlabeled mixed stream at a configurable scale.

    Args:
        n_unlabeled: size of the unlabeled traffic (paper: 250k-2M).
        n_labeled: size of the labeled stream (paper: 86k).
        seed: base RNG seed; the unlabeled stream uses ``seed + 1`` so
            the two streams carry different tweets.
        n_days: collection horizon shared by both streams.
    """

    def __init__(
        self,
        n_unlabeled: int,
        n_labeled: int = 86_000,
        seed: int = 42,
        n_days: int = 10,
        noise: Optional[NoiseConfig] = None,
        drift: Optional[DriftConfig] = None,
    ) -> None:
        if n_unlabeled < 0 or n_labeled < 0:
            raise ValueError("stream sizes must be non-negative")
        if n_unlabeled + n_labeled == 0:
            raise ValueError("workload must contain at least one tweet")
        self.n_unlabeled = n_unlabeled
        self.n_labeled = n_labeled
        self.seed = seed
        self.n_days = n_days
        self.noise = noise
        self.drift = drift
        self.ingest_stats = IngestStats()

    def labeled_stream(self) -> Iterator[Tweet]:
        """The labeled training stream."""
        if self.n_labeled == 0:
            return iter(())
        return AbusiveDatasetGenerator(
            n_tweets=self.n_labeled,
            seed=self.seed,
            n_days=self.n_days,
            start_time=DEFAULT_START_TIME,
            noise=self.noise,
            drift=self.drift,
        ).generate()

    def unlabeled_stream(self) -> Iterator[Tweet]:
        """The unlabeled monitoring traffic (labels stripped)."""
        if self.n_unlabeled == 0:
            return iter(())
        generator = AbusiveDatasetGenerator(
            n_tweets=self.n_unlabeled,
            seed=self.seed + 1,
            n_days=self.n_days,
            start_time=DEFAULT_START_TIME,
            noise=self.noise,
            drift=self.drift,
        )
        return strip_labels(generator.generate())

    def stream(self) -> Iterator[Tweet]:
        """The full interleaved workload in timestamp order (lazy).

        The merged stream passes through ingest sanitization (null
        text -> empty string), with repairs tallied in
        ``self.ingest_stats`` — mirroring what a production consumer
        does to the real firehose before the pipeline sees it.
        """
        merged = interleave_streams(
            self.labeled_stream(), self.unlabeled_stream()
        )
        return sanitize_stream(merged, self.ingest_stats)

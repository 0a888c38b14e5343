"""Synthetic instance-stream generators with controlled concept drift.

MOA-style generators used to validate the streaming learners and drift
detectors independently of the tweet domain:

* :class:`SEAGenerator` — the classic SEA concepts stream (Street &
  Kim, 2001): three uniform features, label = (f1 + f2 <= θ), with θ
  switching between predefined concepts;
* :class:`DriftStream` — wraps any two generators with an abrupt or
  gradual (sigmoid-probability) transition at a chosen position.

All generators are deterministic per seed and yield
:class:`repro.streamml.Instance`.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, Optional

from repro.streamml.instance import Instance


class SEAGenerator:
    """SEA concepts: label = 1 iff feature1 + feature2 <= threshold.

    Args:
        concept: 0-3, selecting thresholds 8 / 9 / 7 / 9.5.
        noise: probability of flipping the label.
        seed: RNG seed.
    """

    THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

    def __init__(self, concept: int = 0, noise: float = 0.0, seed: int = 1) -> None:
        if not 0 <= concept < len(self.THRESHOLDS):
            raise ValueError(f"concept must be in [0, 3], got {concept}")
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        self.concept = concept
        self.noise = noise
        self.seed = seed

    @property
    def threshold(self) -> float:
        return self.THRESHOLDS[self.concept]

    def generate(self, n: Optional[int] = None) -> Iterator[Instance]:
        """Yield ``n`` instances (infinite when ``n`` is None)."""
        rng = random.Random(self.seed)
        count = 0
        while n is None or count < n:
            x = (
                rng.uniform(0, 10),
                rng.uniform(0, 10),
                rng.uniform(0, 10),  # irrelevant feature
            )
            label = int(x[0] + x[1] <= self.threshold)
            if self.noise > 0 and rng.random() < self.noise:
                label = 1 - label
            yield Instance(x=x, y=label, timestamp=float(count))
            count += 1


class DriftStream:
    """Concatenates two streams with an abrupt or gradual transition.

    Args:
        before / after: generators with a ``generate()`` method.
        position: instance index where the drift is centered.
        width: transition width; 1 gives an abrupt switch, larger
            values blend the two concepts with a sigmoid probability
            (MOA's drift model).
        seed: RNG seed for the gradual blending.
    """

    def __init__(
        self,
        before,
        after,
        position: int,
        width: int = 1,
        seed: int = 5,
    ) -> None:
        if position < 0:
            raise ValueError("position must be non-negative")
        if width < 1:
            raise ValueError("width must be >= 1")
        self.before = before
        self.after = after
        self.position = position
        self.width = width
        self.seed = seed

    def generate(self, n: int) -> Iterator[Instance]:
        """Yield exactly ``n`` instances across the drift."""
        rng = random.Random(self.seed)
        old = self.before.generate(None)
        new = self.after.generate(None)
        for index in range(n):
            # P(new concept) follows MOA's sigmoid centered at position.
            exponent = -4.0 * (index - self.position) / self.width
            exponent = max(min(exponent, 700.0), -700.0)
            probability_new = 1.0 / (1.0 + math.exp(exponent))
            source = new if rng.random() < probability_new else old
            instance = next(source)
            yield Instance(x=instance.x, y=instance.y, timestamp=float(index))

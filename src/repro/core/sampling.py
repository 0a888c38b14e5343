"""Sampling (Fig. 1, step 8): boosted random sampling for labeling.

Aggressive tweets are a minority, so uniform sampling of the unlabeled
stream would hand annotators an extremely imbalanced set. Following the
boosted-random-sampling idea of Founta et al. [6], the sampler runs a
*weighted* reservoir (Efraimidis-Spirakis A-Res): tweets predicted
aggressive receive a configurable boost weight, raising their inclusion
probability without deterministically excluding normal tweets — the
sample stays random, just tilted.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Tuple

from repro.streamml.instance import ClassifiedBlock, ClassifiedInstance


class BoostedRandomSampler:
    """Weighted reservoir sampler over the classified unlabeled stream.

    Args:
        capacity: reservoir size (tweets kept for labeling).
        boost: weight multiplier for tweets predicted aggressive.
        aggressive_classes: predicted classes that receive the boost.
        seed: RNG seed.
    """

    def __init__(
        self,
        capacity: int = 100,
        boost: float = 5.0,
        aggressive_classes: Tuple[int, ...] = (1,),
        seed: int = 17,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if boost <= 0:
            raise ValueError("boost must be positive")
        self.capacity = capacity
        self.boost = boost
        self.aggressive_classes = aggressive_classes
        self._rng = random.Random(seed)
        # Min-heap of (key, tiebreak, item); smallest key evicted first.
        self._heap: List[Tuple[float, int, ClassifiedInstance]] = []
        self._counter = 0
        self.n_offered = 0
        self.n_aggressive_offered = 0

    def offer(self, classified: ClassifiedInstance) -> None:
        """Consider one classified instance for the reservoir."""
        key = self._draw(classified.predicted)
        entry = (key, self._counter, classified)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        elif key > self._heap[0][0]:
            heapq.heapreplace(self._heap, entry)

    def offer_many(self, block: ClassifiedBlock) -> None:
        """Offer a micro-batch drain's rows, ``==`` :meth:`offer` per
        row; a row becomes a :class:`ClassifiedInstance` only if it
        enters the reservoir."""
        heap = self._heap
        for row, predicted in enumerate(block.predicted):
            key = self._draw(predicted)
            if len(heap) < self.capacity or key > heap[0][0]:
                entry = (key, self._counter, block.classified(row))
                if len(heap) < self.capacity:
                    heapq.heappush(heap, entry)
                else:
                    heapq.heapreplace(heap, entry)

    def _draw(self, predicted: int) -> float:
        """Count one offer and draw its key."""
        self.n_offered += 1
        weight = 1.0
        if predicted in self.aggressive_classes:
            weight = self.boost
            self.n_aggressive_offered += 1
        self._counter += 1
        # A-Res key: u^(1/w) keeps the top-k keys as a weighted sample.
        return self._rng.random() ** (1.0 / weight)

    def sample(self) -> List[ClassifiedInstance]:
        """Current reservoir contents (unordered)."""
        return [item for _, _, item in self._heap]

    def drain(self) -> List[ClassifiedInstance]:
        """Return the reservoir and reset it (hand-off to labeling)."""
        items = self.sample()
        self._heap = []
        return items

    @property
    def aggressive_fraction_in_sample(self) -> float:
        """Fraction of the reservoir predicted aggressive."""
        sample = self.sample()
        if not sample:
            return 0.0
        hits = sum(
            1 for item in sample if item.predicted in self.aggressive_classes
        )
        return hits / len(sample)

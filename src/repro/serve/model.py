"""The serving-side model: verified snapshot → deadline-aware scorer.

A :class:`ServingModel` is built once from a verified snapshot payload
and is immutable training-wise: the bag-of-words never updates, the
normalizer only transforms, the model only predicts. What *does* adapt
is cost: the model keeps a per-tier latency EWMA and, given a
per-request budget, walks the PR 4 degradation ladder
(``FULL → NO_POS → TEXT_ONLY``) until the expected cost fits — so
deadline pressure degrades feature richness instead of returning
errors. The skipped features are imputed exactly as the streaming
degrade path imputes them (:data:`~repro.core.features.
TIER_IMPUTED_VALUE`), so degraded vectors stay 17-wide and the
normalizer statistics stay valid.

``explain`` reuses the moderator-facing explanation helpers from
:mod:`repro.core.explain` (tree decision paths, linear contributions,
lexicon/BoW evidence) against the snapshot state.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.checkpoint import (
    _bow_from_dict,
    config_from_dict,
    normalizer_from_dict,
)
from repro.core.explain import (
    explain_linear_prediction,
    explain_tree_prediction,
)
from repro.core.features import (
    DegradeTier,
    FeatureExtractor,
    LabelEncoder,
)
from repro.data.tweet import Tweet
from repro.streamml.base import argmax
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.serialize import model_from_dict
from repro.streamml.slr import StreamingLogisticRegression
from repro.text.lexicons import SWEAR_WORDS
from repro.text.tokenizer import words

#: EWMA smoothing for per-tier latency estimates.
_EWMA_ALPHA = 0.2

#: A tier is chosen only if its estimated cost fits within this
#: fraction of the remaining budget — headroom for scheduling jitter.
_BUDGET_HEADROOM = 0.8


class ServingModel:
    """Stateless-scoring view over one verified snapshot payload."""

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.config = config_from_dict(payload["config"])
        self.encoder = LabelEncoder(self.config.n_classes)
        self.bag_of_words = _bow_from_dict(payload["bag_of_words"])
        self.extractor = FeatureExtractor(
            encoder=self.encoder,
            preprocessing=self.config.preprocessing,
            bag_of_words=self.bag_of_words,
            deobfuscate=self.config.deobfuscate,
        )
        self.normalizer = normalizer_from_dict(payload["normalizer"])
        self.model = model_from_dict(payload["model"])
        self.n_classified = 0
        # Per-tier cost EWMAs, seeded lazily from observed requests;
        # keyed in ladder order, which ``choose_tier`` walks.
        self._tier_cost_s: Dict[DegradeTier, Optional[float]] = (
            dict.fromkeys(DegradeTier)
        )

    # -- deadline-aware tier choice ------------------------------------

    def choose_tier(self, budget_s: Optional[float]) -> DegradeTier:
        """Cheapest-necessary tier for the remaining budget.

        No budget (or a generous one) keeps FULL fidelity. Under
        pressure the ladder is walked downward; an unobserved tier is
        assumed to fit (optimism — its first request teaches the
        EWMA). When even TEXT_ONLY is estimated over budget it is
        still chosen: degradation is the floor, erroring is not an
        option on this path.
        """
        if budget_s is None:
            return DegradeTier.FULL
        for tier, estimate in self._tier_cost_s.items():
            if estimate is None or estimate <= budget_s * _BUDGET_HEADROOM:
                return tier
        return DegradeTier.TEXT_ONLY

    def _observe_cost(self, tier: DegradeTier, elapsed_s: float) -> None:
        prior = self._tier_cost_s[tier]
        if prior is None:
            self._tier_cost_s[tier] = elapsed_s
        else:
            self._tier_cost_s[tier] = (
                _EWMA_ALPHA * elapsed_s + (1.0 - _EWMA_ALPHA) * prior
            )

    # -- scoring --------------------------------------------------------

    def classify(
        self,
        tweet: Tweet,
        budget_s: Optional[float] = None,
        tier: Optional[DegradeTier] = None,
    ) -> Dict[str, Any]:
        """Score one tweet within a latency budget; never trains.

        Returns a JSON-safe dict: predicted label, per-class
        probabilities, the tier used, and whether the request was
        degraded below FULL fidelity.
        """
        return self._classify(tweet, budget_s, tier)[0]

    def _classify(
        self,
        tweet: Tweet,
        budget_s: Optional[float],
        tier: Optional[DegradeTier],
    ) -> Tuple[Dict[str, Any], Tuple[float, ...]]:
        """:meth:`classify` plus the normalized vector the model saw."""
        chosen = tier if tier is not None else self.choose_tier(budget_s)
        start = time.perf_counter()
        self.extractor.tier = chosen
        try:
            instance = self.extractor.extract(tweet, update_bow=False)
        finally:
            self.extractor.tier = DegradeTier.FULL
        x = self.normalizer.transform(instance.x)
        proba = self.model.predict_proba_one(x)
        elapsed = time.perf_counter() - start
        self._observe_cost(chosen, elapsed)
        self.n_classified += 1
        predicted = argmax(proba)
        result = {
            "tweet_id": tweet.tweet_id,
            "predicted": self.encoder.decode(predicted),
            "proba": {
                self.encoder.decode(i): float(p)
                for i, p in enumerate(proba)
            },
            "confidence": float(proba[predicted]),
            "tier": chosen.name,
            "degraded": chosen != DegradeTier.FULL,
            "elapsed_s": elapsed,
        }
        return result, x

    def explain(
        self,
        tweet: Tweet,
        budget_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Classification plus moderator-facing evidence (JSON-safe)."""
        result, x = self._classify(tweet, budget_s, None)
        tweet_words = words(tweet.text)
        result["matched_swear_words"] = sorted(
            {w for w in tweet_words if w in SWEAR_WORDS}
        )
        result["matched_bow_words"] = sorted(
            {
                w for w in tweet_words
                if w in self.bag_of_words and w not in SWEAR_WORDS
            }
        )
        # Model-structure evidence is about the best available
        # evidence: the FULL-fidelity vector. Extraction without a BoW
        # update is pure, so an undegraded request reuses the vector it
        # was classified on; only a degraded one pays a second pass.
        if result["degraded"]:
            instance = self.extractor.extract(tweet, update_bow=False)
            x = self.normalizer.transform(instance.x)
        decision_path: List[Dict[str, Any]] = []
        contributions: List[Dict[str, Any]] = []
        if isinstance(self.model, HoeffdingTree):
            steps, _ = explain_tree_prediction(self.model, x)
            decision_path = [
                {
                    "feature": s.feature,
                    "threshold": s.threshold,
                    "value": s.value,
                    "went_left": s.went_left,
                }
                for s in steps
            ]
        elif isinstance(self.model, StreamingLogisticRegression):
            predicted_index = max(
                range(self.config.n_classes),
                key=lambda i: result["proba"][self.encoder.decode(i)],
            )
            contributions = [
                {
                    "feature": c.feature,
                    "value": c.value,
                    "weight": c.weight,
                    "contribution": c.contribution,
                }
                for c in explain_linear_prediction(
                    self.model, x, target_class=predicted_index, top=8
                )
            ]
        result["decision_path"] = decision_path
        result["contributions"] = contributions
        return result

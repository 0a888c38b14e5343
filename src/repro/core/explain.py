"""Alert explanations for human moderators.

The paper routes alerts to human moderators (§III-A); moderators act
faster and more consistently when an alert says *why* it fired. This
module produces explanations for individual predictions:

* :func:`explain_tree_prediction` — the decision path through a
  Hoeffding Tree (feature, threshold, which way the tweet went) plus
  the leaf's class distribution;
* :func:`explain_linear_prediction` — per-feature contributions
  (weight x value) for the predicted class of an SLR model;
* :class:`AlertExplainer` — a pipeline-level facade that also surfaces
  the lexicon evidence (which swear/BoW words the tweet matched).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.features import FEATURE_NAMES
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.tweet import Tweet
from repro.streamml.base import argmax
from repro.streamml.hoeffding_tree import HoeffdingTree, _LeafNode, _SplitNode
from repro.streamml.slr import StreamingLogisticRegression
from repro.text.lexicons import SWEAR_WORDS
from repro.text.tokenizer import words


@dataclass(frozen=True)
class DecisionStep:
    """One internal-node decision along a tree's prediction path."""

    feature: str
    threshold: float
    value: float
    went_left: bool

    def describe(self) -> str:
        """One-line human-readable rendering of the decision."""
        op = "<=" if self.went_left else ">"
        return f"{self.feature} = {self.value:.3f} {op} {self.threshold:.3f}"


@dataclass(frozen=True)
class FeatureContribution:
    """One feature's additive contribution to a linear score."""

    feature: str
    value: float
    weight: float

    @property
    def contribution(self) -> float:
        return self.value * self.weight


def explain_tree_prediction(
    tree: HoeffdingTree,
    x: Sequence[float],
    feature_names: Sequence[str] = FEATURE_NAMES,
) -> Tuple[List[DecisionStep], List[float]]:
    """Decision path and leaf class counts for one input."""
    steps: List[DecisionStep] = []
    node = tree._root
    while isinstance(node, _SplitNode):
        went_left = x[node.feature] <= node.threshold
        steps.append(
            DecisionStep(
                feature=feature_names[node.feature]
                if node.feature < len(feature_names)
                else f"x[{node.feature}]",
                threshold=node.threshold,
                value=float(x[node.feature]),
                went_left=went_left,
            )
        )
        node = node.left if went_left else node.right
    assert isinstance(node, _LeafNode)
    return steps, list(node.class_counts)


def explain_linear_prediction(
    model: StreamingLogisticRegression,
    x: Sequence[float],
    target_class: int,
    feature_names: Sequence[str] = FEATURE_NAMES,
    top: Optional[int] = None,
) -> List[FeatureContribution]:
    """Per-feature contributions to the target class's score, sorted
    by absolute contribution (largest first)."""
    if not model.weights:
        return []
    contributions = [
        FeatureContribution(
            feature=feature_names[index]
            if index < len(feature_names)
            else f"x[{index}]",
            value=float(value),
            weight=model.weights[target_class][index],
        )
        for index, value in enumerate(x)
    ]
    contributions.sort(key=lambda c: abs(c.contribution), reverse=True)
    return contributions[:top] if top is not None else contributions


@dataclass
class AlertExplanation:
    """Everything a moderator needs to triage one alert."""

    tweet_id: str
    text: str
    predicted_label: str
    confidence: float
    matched_swear_words: List[str]
    matched_bow_words: List[str]
    decision_path: List[DecisionStep] = field(default_factory=list)
    contributions: List[FeatureContribution] = field(default_factory=list)

    def describe(self) -> str:
        """Multi-line human-readable explanation."""
        lines = [
            f"tweet {self.tweet_id}: predicted {self.predicted_label} "
            f"(confidence {self.confidence:.2f})",
        ]
        if self.matched_swear_words:
            lines.append(
                "  lexicon hits: " + ", ".join(self.matched_swear_words)
            )
        if self.matched_bow_words:
            lines.append(
                "  adaptive-BoW hits: " + ", ".join(self.matched_bow_words)
            )
        for step in self.decision_path:
            lines.append(f"  path: {step.describe()}")
        for contribution in self.contributions[:5]:
            lines.append(
                f"  {contribution.feature}: {contribution.value:.3f} x "
                f"{contribution.weight:+.3f} = "
                f"{contribution.contribution:+.3f}"
            )
        return "\n".join(lines)


class AlertExplainer:
    """Explains a pipeline's prediction for a specific tweet."""

    def __init__(self, pipeline: AggressionDetectionPipeline) -> None:
        self.pipeline = pipeline

    def explain(self, tweet: Tweet) -> AlertExplanation:
        """Build the full explanation without mutating pipeline state."""
        pipeline = self.pipeline
        instance = pipeline.extractor.extract(tweet, update_bow=False)
        x = pipeline.normalizer.transform(instance.x)
        proba = pipeline.model.predict_proba_one(x)
        predicted = argmax(proba)
        tweet_words = words(tweet.text)
        matched_swears = sorted(
            {w for w in tweet_words if w in SWEAR_WORDS}
        )
        bow = pipeline.bag_of_words
        matched_bow = sorted(
            {w for w in tweet_words if w in bow and w not in SWEAR_WORDS}
        )
        decision_path: List[DecisionStep] = []
        contributions: List[FeatureContribution] = []
        model = pipeline.model
        if isinstance(model, HoeffdingTree):
            decision_path, _ = explain_tree_prediction(model, x)
        elif isinstance(model, StreamingLogisticRegression):
            contributions = explain_linear_prediction(
                model, x, target_class=predicted, top=8
            )
        return AlertExplanation(
            tweet_id=tweet.tweet_id,
            text=tweet.text,
            predicted_label=pipeline.encoder.decode(predicted),
            confidence=proba[predicted],
            matched_swear_words=matched_swears,
            matched_bow_words=matched_bow,
            decision_path=decision_path,
            contributions=contributions,
        )

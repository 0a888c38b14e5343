"""Pipeline configuration and model factory.

:class:`PipelineConfig` collects the experiment knobs the paper sweeps:
the class setup (c = 2 or 3), the p/n/ad toggles (preprocessing,
normalization, adaptive BoW), the streaming model and its
hyperparameters (Table I defaults). :func:`create_model` instantiates
the configured classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.core.normalization import MINMAX_NO_OUTLIERS
from repro.streamml.arf import AdaptiveRandomForest
from repro.streamml.base import StreamClassifier
from repro.streamml.ensembles import OzaBagging, OzaBoosting
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.knn import KNNClassifier
from repro.streamml.majority import MajorityClassClassifier, NoChangeClassifier
from repro.streamml.naive_bayes import GaussianNaiveBayes
from repro.streamml.slr import StreamingLogisticRegression

#: Model name -> constructor keyword defaults (Table I selected values).
MODEL_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "ht": {
        "split_criterion": "infogain",
        "split_confidence": 0.01,
        "tie_threshold": 0.05,
        "grace_period": 200,
        "max_depth": 20,
    },
    "arf": {
        "split_criterion": "infogain",
        "split_confidence": 0.01,
        "tie_threshold": 0.05,
        "grace_period": 200,
        "max_depth": 20,
        "ensemble_size": 10,
    },
    "slr": {
        "learning_rate": 0.1,
        "regularizer": "l2",
        "regularization": 0.01,
    },
    "majority": {},
    "nochange": {},
    "gnb": {},
    "knn": {"k": 11, "window_size": 1000},
    "ozabag": {"ensemble_size": 10},
    "ozaboost": {"ensemble_size": 10},
}

_CONSTRUCTORS = {
    "ht": HoeffdingTree,
    "arf": AdaptiveRandomForest,
    "slr": StreamingLogisticRegression,
    "majority": MajorityClassClassifier,
    "nochange": NoChangeClassifier,
    "gnb": GaussianNaiveBayes,
    "knn": KNNClassifier,
    "ozabag": OzaBagging,
    "ozaboost": OzaBoosting,
}


@dataclass
class PipelineConfig:
    """Full configuration of an aggression-detection pipeline run.

    Attributes:
        n_classes: 2 (normal vs aggressive) or 3 (normal/abusive/hateful).
        preprocessing: the p toggle (Fig. 6).
        normalization: normalizer kind ("minmax", "minmax_no_outliers",
            "zscore", "none"); "none" is the n=OFF arm (Figs. 7/8).
        adaptive_bow: the ad toggle (Fig. 9); OFF uses the fixed list.
        deobfuscate: normalize disguised profanity ("sh1t") before
            lexicon matching (evasion-resistance extension).
        model: "ht", "arf", "slr", "gnb", "knn", "ozabag",
            "ozaboost", "majority", or "nochange".
        model_params: overrides merged over the Table I defaults.
        evaluation_window: sliding-window width for time-series metrics.
        record_every: labeled instances between recorded metric points.
        alert_min_confidence: alerting threshold.
        sample_capacity / sample_boost: boosted-sampler settings.
        seed: RNG seed threaded into stochastic components.
    """

    n_classes: int = 3
    preprocessing: bool = True
    normalization: str = MINMAX_NO_OUTLIERS
    adaptive_bow: bool = True
    deobfuscate: bool = False
    model: str = "ht"
    model_params: Dict[str, Any] = field(default_factory=dict)
    evaluation_window: int = 1000
    record_every: int = 500
    alert_min_confidence: float = 0.5
    sample_capacity: int = 200
    sample_boost: float = 5.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.n_classes not in (2, 3):
            raise ValueError(f"n_classes must be 2 or 3, got {self.n_classes}")
        if self.model not in _CONSTRUCTORS:
            raise ValueError(
                f"unknown model {self.model!r}; expected one of "
                f"{sorted(_CONSTRUCTORS)}"
            )

    @property
    def normalization_enabled(self) -> bool:
        """Whether a real (non-identity) normalizer is configured."""
        return self.normalization not in ("none", "identity")

    def describe(self) -> str:
        """Compact run descriptor in the paper's caption style."""
        return (
            f"{self.model.upper()}, p={'ON' if self.preprocessing else 'OFF'}, "
            f"n={'ON' if self.normalization_enabled else 'OFF'}, "
            f"ad={'ON' if self.adaptive_bow else 'OFF'}, c={self.n_classes}"
        )


def create_model(config: PipelineConfig) -> StreamClassifier:
    """Instantiate the configured streaming classifier."""
    params = dict(MODEL_DEFAULTS[config.model])
    params.update(config.model_params)
    if config.model in ("arf", "ozabag", "ozaboost"):
        params.setdefault("seed", config.seed)
    constructor = _CONSTRUCTORS[config.model]
    return constructor(n_classes=config.n_classes, **params)

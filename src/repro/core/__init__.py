"""The paper's contribution: the real-time aggression-detection pipeline.

The pipeline (Fig. 1) chains nine stages — preprocessing, feature
extraction, normalization, training, prediction, alerting, evaluation,
sampling, labeling — over two input streams (unlabeled and labeled
tweets). :class:`repro.core.pipeline.AggressionDetectionPipeline` is the
single-process reference implementation; :mod:`repro.engine` runs the
same stages partition-parallel.
"""

from repro.core.adaptive_bow import AdaptiveBagOfWords
from repro.core.alerting import Alert, AlertAction, AlertManager, AlertPolicy
from repro.core.config import PipelineConfig, create_model
from repro.core.evaluation import ConfusionMatrix, PrequentialEvaluator
from repro.core.explain import AlertExplainer, AlertExplanation
from repro.core.features import FEATURE_NAMES, FeatureExtractor, LabelEncoder
from repro.core.labeling import LabelingQueue, OracleLabeler
from repro.core.normalization import (
    MinMaxNormalizer,
    MinMaxNoOutliersNormalizer,
    Normalizer,
    ZScoreNormalizer,
    make_normalizer,
)
from repro.core.pipeline import AggressionDetectionPipeline, PipelineResult
from repro.core.preprocessing import preprocess_tokens
from repro.core.sampling import BoostedRandomSampler
from repro.core.sessions import (
    Session,
    SessionDetectionPipeline,
    TumblingWindowAssigner,
)

__all__ = [
    "AdaptiveBagOfWords",
    "Alert",
    "AlertAction",
    "AlertManager",
    "AlertPolicy",
    "PipelineConfig",
    "create_model",
    "ConfusionMatrix",
    "AlertExplainer",
    "AlertExplanation",
    "PrequentialEvaluator",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "LabelEncoder",
    "LabelingQueue",
    "OracleLabeler",
    "MinMaxNormalizer",
    "MinMaxNoOutliersNormalizer",
    "Normalizer",
    "ZScoreNormalizer",
    "make_normalizer",
    "AggressionDetectionPipeline",
    "PipelineResult",
    "preprocess_tokens",
    "BoostedRandomSampler",
    "Session",
    "SessionDetectionPipeline",
    "TumblingWindowAssigner",
]

"""Tests for model serialization (save/load round trips)."""

from __future__ import annotations

import json
import random

import pytest

from repro.streamml import (
    AdaptiveRandomForest,
    GaussianNaiveBayes,
    HoeffdingTree,
    Instance,
    MajorityClassClassifier,
    NoChangeClassifier,
    StreamingLogisticRegression,
)
from repro.streamml.serialize import (
    SerializationError,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
)


def _train(model, n=2000, seed=0, n_features=3):
    rng = random.Random(seed)
    for _ in range(n):
        label = rng.random() < 0.5
        x = tuple(
            rng.gauss(2.0 if label and f == 0 else 0.0, 1.0)
            for f in range(n_features)
        )
        model.learn_one(Instance(x=x, y=int(label)))
    return model


def _probes(seed=99, n=50, n_features=3):
    rng = random.Random(seed)
    return [
        tuple(rng.gauss(0.5, 2.0) for _ in range(n_features))
        for _ in range(n)
    ]


MODELS = [
    lambda: HoeffdingTree(n_classes=2, grace_period=100),
    lambda: StreamingLogisticRegression(n_classes=2),
    lambda: GaussianNaiveBayes(n_classes=2),
    lambda: MajorityClassClassifier(n_classes=2),
    lambda: NoChangeClassifier(n_classes=2),
    lambda: AdaptiveRandomForest(n_classes=2, ensemble_size=3, seed=5),
]


class TestRoundTrip:
    @pytest.mark.parametrize("factory", MODELS)
    def test_predictions_identical(self, factory):
        model = _train(factory())
        restored = model_from_dict(model_to_dict(model))
        for probe in _probes():
            assert restored.predict_proba_one(probe) == pytest.approx(
                model.predict_proba_one(probe)
            )

    @pytest.mark.parametrize("factory", MODELS)
    def test_payload_is_json_safe(self, factory):
        model = _train(factory(), n=500)
        payload = model_to_dict(model)
        json.dumps(payload)  # must not raise

    def test_file_round_trip(self, tmp_path):
        model = _train(HoeffdingTree(n_classes=2, grace_period=100))
        path = tmp_path / "model.json"
        size = save_model(model, path)
        assert size > 0
        restored = load_model(path)
        for probe in _probes():
            assert restored.predict_one(probe) == model.predict_one(probe)

    def test_restored_model_keeps_learning(self):
        model = _train(HoeffdingTree(n_classes=2, grace_period=100), n=1000)
        restored = model_from_dict(model_to_dict(model))
        _train(restored, n=1000, seed=1)
        assert restored.instances_seen == 2000

    def test_ht_structure_preserved(self):
        model = _train(HoeffdingTree(n_classes=2, grace_period=100), n=4000)
        restored = model_from_dict(model_to_dict(model))
        assert restored.n_leaves == model.n_leaves
        assert restored.n_split_nodes == model.n_split_nodes
        assert [leaf.depth for leaf in restored.leaves()] == [
            leaf.depth for leaf in model.leaves()
        ]

    def test_arf_counters_preserved(self):
        model = _train(
            AdaptiveRandomForest(n_classes=2, ensemble_size=3, seed=5)
        )
        restored = model_from_dict(model_to_dict(model))
        assert restored.instances_seen == model.instances_seen
        assert [m.seen for m in restored.members] == [
            m.seen for m in model.members
        ]

    def test_broadcast_size_under_1mb(self):
        # The paper notes the serialized global model stays < 1 MB.
        model = _train(HoeffdingTree(n_classes=3, grace_period=100), n=5000)
        text = json.dumps(model_to_dict(model))
        assert len(text.encode("utf-8")) < 1_000_000


class TestErrors:
    def test_unknown_model_type(self):
        class Fake:
            pass

        with pytest.raises(SerializationError):
            model_to_dict(Fake())  # type: ignore[arg-type]

    def test_bad_schema_version(self):
        payload = model_to_dict(MajorityClassClassifier(2))
        payload["schema_version"] = 999
        with pytest.raises(SerializationError):
            model_from_dict(payload)

    def test_unknown_kind(self):
        payload = model_to_dict(MajorityClassClassifier(2))
        payload["kind"] = "svm"
        with pytest.raises(SerializationError):
            model_from_dict(payload)

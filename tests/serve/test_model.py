"""ServingModel.explain: one extraction when undegraded, same JSON."""

from __future__ import annotations

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.explain import explain_tree_prediction
from repro.core.features import DegradeTier
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.sequential import SequentialEngine
from repro.serve.model import ServingModel
from repro.serve.snapshot import payload_from_source
from repro.text.lexicons import SWEAR_WORDS
from repro.text.tokenizer import words


@pytest.fixture(scope="module")
def split_tree_payload():
    """Long enough a run that the Hoeffding tree has split, so the
    decision path under test is not empty."""
    engine = SequentialEngine()
    engine.process_chunk(
        AbusiveDatasetGenerator(n_tweets=3000, seed=23).generate_list()
    )
    return payload_from_source(engine)


def _two_pass_explain(model: ServingModel, tweet, budget_s=None):
    """/explain as it was first written: classify, then a second FULL
    extraction for the model-structure evidence."""
    result = model.classify(tweet, budget_s=budget_s)
    tweet_words = words(tweet.text)
    result["matched_swear_words"] = sorted(
        {w for w in tweet_words if w in SWEAR_WORDS}
    )
    result["matched_bow_words"] = sorted(
        {
            w for w in tweet_words
            if w in model.bag_of_words and w not in SWEAR_WORDS
        }
    )
    instance = model.extractor.extract(tweet, update_bow=False)
    steps, _ = explain_tree_prediction(
        model.model, model.normalizer.transform(instance.x)
    )
    result["decision_path"] = [
        {
            "feature": s.feature,
            "threshold": s.threshold,
            "value": s.value,
            "went_left": s.went_left,
        }
        for s in steps
    ]
    result["contributions"] = []
    return result


def _count_extractions(model: ServingModel):
    calls = []
    extract = model.extractor.extract

    def counting(tweet, update_bow=True):
        calls.append(model.extractor.tier)
        return extract(tweet, update_bow=update_bow)

    model.extractor.extract = counting
    return calls


class TestExplain:
    def test_json_is_byte_identical_to_the_two_pass_form(self, split_tree_payload):
        tweets = AbusiveDatasetGenerator(n_tweets=40, seed=4).generate_list()
        for budget_s in (None, 1e-9):  # undegraded, then forced TEXT_ONLY
            got_model = ServingModel(split_tree_payload)
            want_model = ServingModel(split_tree_payload)
            if budget_s is not None:
                for model in (got_model, want_model):
                    for tier in DegradeTier:
                        model._observe_cost(tier, 1.0)
            for tweet in tweets:
                got = got_model.explain(tweet, budget_s=budget_s)
                want = _two_pass_explain(want_model, tweet, budget_s)
                got.pop("elapsed_s"), want.pop("elapsed_s")
                assert json.dumps(got) == json.dumps(want)
                assert got["degraded"] == (budget_s is not None)
                assert got["decision_path"]

    def test_undegraded_request_extracts_once(self, split_tree_payload):
        model = ServingModel(split_tree_payload)
        tweet = AbusiveDatasetGenerator(n_tweets=10, seed=4).generate_list()[0]
        calls = _count_extractions(model)
        model.explain(tweet)
        assert calls == [DegradeTier.FULL]

    def test_degraded_request_pays_the_full_fidelity_pass(self, split_tree_payload):
        model = ServingModel(split_tree_payload)
        for tier in DegradeTier:
            model._observe_cost(tier, 1.0)
        tweet = AbusiveDatasetGenerator(n_tweets=10, seed=4).generate_list()[0]
        calls = _count_extractions(model)
        assert model.explain(tweet, budget_s=1e-9)["tier"] == "TEXT_ONLY"
        assert calls == [DegradeTier.TEXT_ONLY, DegradeTier.FULL]


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize(
    "model,normalization", [("ht", "zscore"), ("slr", "minmax")]
)
def test_snapshot_with_retired_fast_math_key_serves_identically(
    with_retired_fast_math, model, normalization, flag
):
    """A trainer on the commit before ``fast_math`` was deleted can hot
    swap into this server: its snapshots load, and score as one that
    never carried the key."""
    engine = SequentialEngine(
        PipelineConfig(n_classes=2, model=model, normalization=normalization)
    )
    engine.process_chunk(
        AbusiveDatasetGenerator(n_tweets=600, seed=23).generate_list()
    )
    payload = payload_from_source(engine)
    old = ServingModel(with_retired_fast_math(payload, flag))
    new = ServingModel(payload)
    assert old.config == new.config
    for tweet in AbusiveDatasetGenerator(n_tweets=40, seed=4).generate_list():
        got, want = old.classify(tweet), new.classify(tweet)
        got.pop("elapsed_s"), want.pop("elapsed_s")
        assert got == want


def test_snapshot_with_unknown_config_key_is_refused(split_tree_payload):
    payload = json.loads(json.dumps(split_tree_payload))
    payload["config"]["slow_math"] = True
    with pytest.raises(TypeError, match="slow_math"):
        ServingModel(payload)

"""Parent-written golden for the tree learners (HT and ARF).

``golden_tree.json`` was written by the commit *before* Hoeffding-tree
leaves became flat Gaussian tables (PR 18's parent), running this very
file with the parent checkout's ``src`` on the path. It pins, over 3 000
synthetic labelled tweets through the real extractor and normaliser:

* the sufficient statistics — sha256 of ``model_to_dict`` every 500
  tweets, compared with ``==`` (counts, means, m2, ranges, the adaptive
  NB/MC counters and every split threshold are bit-exact);
* every predicted label, compared with ``==``;
* every probability, within 1e-12 (the votes are the same function
  evaluated in log space — DESIGN.md §9 "Classifier kernel");
* for three runs: a prequential Hoeffding tree (``nba`` leaves), a
  prequential ARF (``ensemble_size=3``) and a *partitioned* tree trained
  the way the micro-batch engine does it (``structure_copy`` → two
  partitions' ``learn_many`` → ``merge`` → ``attempt_deferred_splits``,
  predictions from ``predict_proba_many`` on the float64 matrix);
* one literal parent-written HT payload that must load and re-serialise
  byte-identically.

Regenerate only when predictions are *meant* to change, and only against
the commit whose numbers are the contract::

    PYTHONPATH=<parent checkout>/src python tests/streamml/test_golden_tree.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence

import numpy as np
import pytest

from repro.core.adaptive_bow import AdaptiveBagOfWords
from repro.core.features import N_FEATURES, FeatureExtractor, LabelEncoder
from repro.core.normalization import make_normalizer
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.streamml.arf import AdaptiveRandomForest
from repro.streamml.base import StreamClassifier
from repro.streamml.hoeffding_tree import HoeffdingTree
from repro.streamml.instance import Instance
from repro.streamml.serialize import model_from_dict, model_to_dict

GOLDEN_PATH = Path(__file__).with_name("golden_tree.json")

N_TWEETS = 3000
DIGEST_EVERY = 500
#: The literal payload is the prequential tree after this many tweets.
PAYLOAD_AT = 1500


def golden_instances() -> List[Instance]:
    """The normalised labelled stream every run sees."""
    tweets = AbusiveDatasetGenerator(n_tweets=N_TWEETS, seed=18).generate_list()
    extractor = FeatureExtractor(
        encoder=LabelEncoder(3),
        bag_of_words=AdaptiveBagOfWords(update_interval=250),
    )
    normalizer = make_normalizer("minmax_no_outliers", N_FEATURES)
    instances = []
    for tweet in tweets:
        instance = extractor.extract(tweet)
        instances.append(
            instance.with_features(normalizer.observe_and_transform(instance.x))
        )
    return instances


def dumps(model: StreamClassifier) -> str:
    return json.dumps(model_to_dict(model), separators=(",", ":"))


def digest(model: StreamClassifier) -> str:
    return hashlib.sha256(dumps(model).encode("utf-8")).hexdigest()


def _label(proba: Sequence[float]) -> int:
    return max(range(len(proba)), key=proba.__getitem__)


def run_prequential(
    model: StreamClassifier, instances: Sequence[Instance]
) -> Dict[str, Any]:
    """Test-then-train, one row at a time (the sequential engine)."""
    run: Dict[str, Any] = {"digests": [], "labels": [], "probas": []}
    for index, instance in enumerate(instances, start=1):
        proba = model.predict_proba_one(instance.x)
        run["probas"].append(list(proba))
        run["labels"].append(_label(proba))
        model.learn_one(instance)
        if index % DIGEST_EVERY == 0:
            run["digests"].append(digest(model))
        if index == PAYLOAD_AT and isinstance(model, HoeffdingTree):
            run["payload"] = dumps(model)
    return run


def run_partitioned(
    model: HoeffdingTree, instances: Sequence[Instance]
) -> Dict[str, Any]:
    """The micro-batch engine's protocol on batches of 500 × 2 partitions."""
    run: Dict[str, Any] = {"digests": [], "labels": [], "probas": []}
    for start in range(0, len(instances), DIGEST_EVERY):
        batch = instances[start : start + DIGEST_EVERY]
        matrix = np.asarray([i.x for i in batch], dtype=np.float64)
        for proba in model.predict_proba_many(matrix):
            run["probas"].append([float(p) for p in proba])
            run["labels"].append(_label(proba))
        locals_ = [model.structure_copy(), model.structure_copy()]
        for offset, local in enumerate(locals_):
            local.learn_many(batch[offset::2])
        for local in locals_:
            model.merge(local)
        model.attempt_deferred_splits()
        run["digests"].append(digest(model))
    return run


def _tree() -> HoeffdingTree:
    # A short grace period and a loose tie threshold: seven leaves by the
    # end, some answering with naive Bayes and some with majority class.
    return HoeffdingTree(
        n_classes=3, leaf_prediction="nba", grace_period=50, tie_threshold=0.1
    )


def compute_golden() -> Dict[str, Dict[str, Any]]:
    instances = golden_instances()
    return {
        "ht": run_prequential(_tree(), instances),
        "arf": run_prequential(
            AdaptiveRandomForest(n_classes=3, ensemble_size=3, seed=5),
            instances,
        ),
        "ht_partitioned": run_partitioned(_tree(), instances),
    }


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def computed() -> Dict[str, Dict[str, Any]]:
    return compute_golden()


class TestGoldenTree:
    @pytest.mark.parametrize("run", ["ht", "arf", "ht_partitioned"])
    def test_statistics_and_labels_equal_the_parent_commit(
        self, golden, computed, run
    ):
        assert computed[run]["digests"] == golden[run]["digests"]
        assert len(golden[run]["digests"]) == N_TWEETS // DIGEST_EVERY
        assert computed[run]["labels"] == golden[run]["labels"]
        assert len(golden[run]["labels"]) == N_TWEETS

    @pytest.mark.parametrize("run", ["ht", "arf", "ht_partitioned"])
    def test_probabilities_within_1e_12_of_the_parent_commit(
        self, golden, computed, run
    ):
        for index, (got, want) in enumerate(
            zip(computed[run]["probas"], golden[run]["probas"])
        ):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), index

    def test_golden_reaches_naive_bayes_leaves_and_splits(self, golden):
        payload = json.loads(golden["ht"]["payload"])
        assert payload["model"]["n_split_nodes"] >= 1
        # Probabilities that are not a ratio of class counts: NB answered.
        distinct = {tuple(p) for p in golden["ht"]["probas"]}
        assert len(distinct) > N_TWEETS // 2
        assert len(set(golden["ht"]["labels"])) == 3

    def test_parent_written_payload_round_trips_byte_identically(self, golden):
        text = golden["ht"]["payload"]
        model = model_from_dict(json.loads(text))
        assert dumps(model) == text
        assert dumps(model_from_dict(json.loads(dumps(model)))) == text


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(compute_golden(), separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN_PATH} ({GOLDEN_PATH.stat().st_size} bytes)")

"""Tests for pipeline checkpointing (save → resume equivalence)."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import (
    engine_from_dict,
    engine_to_dict,
    normalizer_from_dict,
    normalizer_to_dict,
    pipeline_from_dict,
    pipeline_to_dict,
    save_pipeline,
)
from repro.core.config import PipelineConfig
from repro.core.normalization import make_normalizer
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.loader import strip_labels
from repro.engine.microbatch import MicroBatchEngine
from repro.streamml.serialize import model_to_dict


class TestNormalizerRoundTrip:
    @pytest.mark.parametrize(
        "kind", ["minmax", "minmax_no_outliers", "zscore", "none"]
    )
    def test_transform_identical(self, kind):
        import random

        rng = random.Random(0)
        normalizer = make_normalizer(kind, 3)
        for _ in range(500):
            normalizer.observe(
                (rng.gauss(5, 2), rng.expovariate(0.1), rng.random())
            )
        restored = normalizer_from_dict(normalizer_to_dict(normalizer))
        for _ in range(50):
            probe = (rng.gauss(5, 2), rng.expovariate(0.1), rng.random())
            assert restored.transform(probe) == pytest.approx(
                normalizer.transform(probe)
            )


#: A ``minmax_no_outliers`` payload exactly as the previous (per-feature
#: P² sketch) format wrote it: feature 0 warm, 7 rows in.
_P2_PAYLOAD = {
    "n_features": 1,
    "observed": 7,
    "transformed": 7,
    "clipped": 2,
    "fast_math": False,
    "kind": "minmax_no_outliers",
    "lower_quantile": 0.05,
    "upper_quantile": 0.95,
    "lower": [
        {
            "quantile": 0.05,
            "count": 7,
            "initial": [1.0, 2.0, 3.0, 4.0, 5.0],
            "q": [0.5, 1.25, 2.0, 3.5, 9.0],
            "n": [1.0, 2.0, 3.0, 5.0, 7.0],
            "np": [1.0, 1.3, 1.6, 4.3, 7.0],
            "dn": [0.0, 0.025, 0.05, 0.525, 1.0],
        }
    ],
    "upper": [
        {
            "quantile": 0.95,
            "count": 7,
            "initial": [1.0, 2.0, 3.0, 4.0, 5.0],
            "q": [0.5, 3.0, 8.0, 8.5, 9.0],
            "n": [1.0, 3.0, 5.0, 6.0, 7.0],
            "np": [1.0, 3.85, 6.7, 6.85, 7.0],
            "dn": [0.0, 0.475, 0.95, 0.975, 1.0],
        }
    ],
}

#: The same format while the sketches were still buffering (< 5 rows).
_P2_WARMUP_PAYLOAD = {
    "n_features": 2,
    "observed": 2,
    "kind": "minmax_no_outliers",
    "lower_quantile": 0.05,
    "upper_quantile": 0.95,
    "lower": [
        {"quantile": 0.05, "count": 2, "initial": [1.0, 3.0],
         "q": [], "n": [], "np": [], "dn": []},
        {"quantile": 0.05, "count": 2, "initial": [10.0, 30.0],
         "q": [], "n": [], "np": [], "dn": []},
    ],
    "upper": [
        {"quantile": 0.95, "count": 2, "initial": [1.0, 3.0],
         "q": [], "n": [], "np": [], "dn": []},
        {"quantile": 0.95, "count": 2, "initial": [10.0, 30.0],
         "q": [], "n": [], "np": [], "dn": []},
    ],
}


class TestNoOutliersSketchState:
    def test_mid_block_round_trip_continues_identically(self):
        import random

        rng = random.Random(1)
        rows = [
            (rng.lognormvariate(0, 1), float(rng.randint(0, 9)))
            for _ in range(700)
        ]
        for cut in (0, 3, 255, 256, 300, 512, 650):
            uninterrupted = make_normalizer("minmax_no_outliers", 2)
            expected = [uninterrupted.observe_and_transform(x) for x in rows]
            first = make_normalizer("minmax_no_outliers", 2)
            got = [first.observe_and_transform(x) for x in rows[:cut]]
            payload = json.loads(json.dumps(normalizer_to_dict(first)))
            resumed = normalizer_from_dict(payload)
            got += resumed.observe_and_transform_many(rows[cut:])
            assert got == expected
            assert normalizer_to_dict(resumed) == normalizer_to_dict(
                uninterrupted
            )

    def test_previous_p2_payload_still_loads(self):
        normalizer = normalizer_from_dict(_P2_PAYLOAD)
        assert (normalizer.observed, normalizer.n_clipped) == (7, 2)
        # q[2] of each sketch is its estimate; q[0]/q[4] the extremes.
        assert normalizer.bounds == [(2.0, 8.0)]
        assert normalizer.transform((5.0,)) == (0.5,)
        state = normalizer.sketch_state()
        assert (state["folded"], state["min"], state["max"]) == (7, [0.5], [9.0])
        assert state["pending"] == []
        # And it re-saves in the current format only.
        assert "lower" not in normalizer_to_dict(normalizer)

    def test_previous_p2_warmup_payload_becomes_pending_rows(self):
        normalizer = normalizer_from_dict(_P2_WARMUP_PAYLOAD)
        state = normalizer.sketch_state()
        assert state["folded"] == 0
        assert state["pending"] == [[1.0, 10.0], [3.0, 30.0]]
        assert normalizer.transform((2.0, 20.0)) == pytest.approx((0.5, 0.5))


class TestResumeEquivalence:
    """A resumed pipeline must continue exactly as an uninterrupted one."""

    @pytest.mark.parametrize("model", ["ht", "slr"])
    def test_metrics_identical_after_resume(self, medium_stream, model):
        stream = medium_stream[:5000]
        half = len(stream) // 2
        config = PipelineConfig(n_classes=2, model=model)

        uninterrupted = AggressionDetectionPipeline(config)
        uninterrupted.process_stream(stream)

        first = AggressionDetectionPipeline(config)
        first.process_stream(stream[:half])
        resumed = pipeline_from_dict(pipeline_to_dict(first))
        resumed.process_stream(stream[half:])

        assert resumed.evaluator.summary() == pytest.approx(
            uninterrupted.evaluator.summary()
        )
        assert resumed.n_processed == uninterrupted.n_processed
        assert len(resumed.bag_of_words) == len(uninterrupted.bag_of_words)

    def test_unlabeled_path_state_restored(self, small_stream):
        config = PipelineConfig(n_classes=2)
        pipeline = AggressionDetectionPipeline(config)
        pipeline.process_stream(small_stream)
        for tweet in strip_labels(small_stream[:400]):
            pipeline.process(tweet)
        restored = pipeline_from_dict(pipeline_to_dict(pipeline))
        assert restored.n_unlabeled == pipeline.n_unlabeled
        assert restored.sampler.n_offered == pipeline.sampler.n_offered
        assert len(restored.sampler.sample()) == len(pipeline.sampler.sample())
        assert (
            restored.alert_manager.suspended_users
            == pipeline.alert_manager.suspended_users
        )

    def test_sampler_rng_continues_identically(self, small_stream):
        config = PipelineConfig(n_classes=2)
        pipeline = AggressionDetectionPipeline(config)
        pipeline.process_stream(small_stream[:1000])
        restored = pipeline_from_dict(pipeline_to_dict(pipeline))
        tail = list(strip_labels(small_stream[1000:1400]))
        for tweet in tail:
            pipeline.process(tweet)
            restored.process(tweet)
        original_ids = sorted(
            c.instance.tweet_id for c in pipeline.sampler.sample()
        )
        restored_ids = sorted(
            c.instance.tweet_id for c in restored.sampler.sample()
        )
        assert original_ids == restored_ids


#: One configuration per kernel the retired flag used to fork.
_RETIRED_FLAG_CONFIGS = [("ht", "zscore"), ("slr", "minmax")]


@pytest.mark.parametrize("flag", [False, True])
@pytest.mark.parametrize("model,normalization", _RETIRED_FLAG_CONFIGS)
class TestRetiredFastMathKey:
    """Checkpoints written before ``fast_math`` was deleted still load,
    and continue exactly as a run that never carried the key."""

    def test_pipeline_checkpoint(
        self, small_stream, with_retired_fast_math, model, normalization, flag
    ):
        config = PipelineConfig(
            n_classes=2, model=model, normalization=normalization
        )
        half = len(small_stream) // 2
        uninterrupted = AggressionDetectionPipeline(config)
        uninterrupted.process_stream(small_stream)
        first = AggressionDetectionPipeline(config)
        first.process_stream(small_stream[:half])
        resumed = pipeline_from_dict(
            with_retired_fast_math(pipeline_to_dict(first), flag)
        )
        resumed.process_stream(small_stream[half:])
        assert pipeline_to_dict(resumed) == pipeline_to_dict(uninterrupted)
        assert "fast_math" not in json.dumps(pipeline_to_dict(resumed))

    def test_microbatch_engine_state(
        self, small_stream, with_retired_fast_math, model, normalization, flag
    ):
        def engine():
            return MicroBatchEngine(
                PipelineConfig(
                    n_classes=2, model=model, normalization=normalization
                ),
                n_partitions=2,
                batch_size=500,
            )

        uninterrupted = engine()
        uninterrupted.run(small_stream)
        first = engine()
        first.run(small_stream[:1000])
        payload = engine_to_dict(first)
        payload["pipeline"] = with_retired_fast_math(payload["pipeline"], flag)
        resumed = engine_from_dict(payload)
        result = resumed.run(small_stream[1000:])
        assert model_to_dict(resumed.model) == model_to_dict(
            uninterrupted.model
        )
        assert normalizer_to_dict(resumed.normalizer) == normalizer_to_dict(
            uninterrupted.normalizer
        )
        assert result.metrics == uninterrupted.result().metrics
        assert "fast_math" not in json.dumps(engine_to_dict(resumed))


def test_unknown_config_key_still_raises(small_stream):
    pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
    pipeline.process_stream(small_stream[:50])
    payload = pipeline_to_dict(pipeline)
    payload["config"]["slow_math"] = True
    with pytest.raises(TypeError, match="slow_math"):
        pipeline_from_dict(payload)


class TestFiles:
    def test_file_round_trip(self, tmp_path, small_stream):
        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=3))
        pipeline.process_stream(small_stream[:800])
        path = tmp_path / "checkpoint.json"
        size = save_pipeline(pipeline, path)
        assert size > 0
        restored = pipeline_from_dict(json.loads(path.read_text()))
        assert restored.config.n_classes == 3
        assert restored.n_processed == 800

    def test_bad_version_rejected(self, small_stream):
        from repro.streamml.serialize import SerializationError

        pipeline = AggressionDetectionPipeline(PipelineConfig(n_classes=2))
        pipeline.process_stream(small_stream[:100])
        payload = pipeline_to_dict(pipeline)
        payload["checkpoint_version"] = 999
        with pytest.raises(SerializationError):
            pipeline_from_dict(payload)

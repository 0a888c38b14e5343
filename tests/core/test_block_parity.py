"""Row ≡ block: ``process_block`` over any cut of the stream leaves
exactly the state ``process`` leaves tweet by tweet.

Generated cuts cover blocks of one, blocks that straddle an adaptive-BoW
maintenance pass (every 40 labelled tweets here) and a 256-row
normaliser fold, a degrade-tier switch between chunks, and poisoned
tweets under a dead-letter queue, including a breaker that opens
mid-block. Everything a run leaves behind is compared with ``==``.
"""

from __future__ import annotations

from typing import List, Sequence

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.features import DegradeTier
from repro.core.normalization import BLOCK_ROWS
from repro.core.pipeline import AggressionDetectionPipeline
from repro.data.loader import strip_labels
from repro.data.synthetic import AbusiveDatasetGenerator
from repro.engine.replay import model_state_digest
from repro.reliability.deadletter import CircuitOpenError, DeadLetterQueue
from repro.reliability.faults import CORRUPTION_KINDS, corrupt_tweet

N_TWEETS = 640
MAINTAIN_EVERY = 40


def _stream():
    tweets = AbusiveDatasetGenerator(n_tweets=N_TWEETS, seed=29).generate_list()
    unlabeled = list(strip_labels(tweets))
    # Every third tweet unlabelled, so alerting and sampling run too.
    return [u if i % 3 == 0 else t for i, (t, u) in enumerate(zip(tweets, unlabeled))]


STREAM = _stream()


def _pipeline(quarantine: bool, max_poison_rate=None):
    pipeline = AggressionDetectionPipeline(
        PipelineConfig(n_classes=3),
        dead_letters=DeadLetterQueue() if quarantine else None,
        max_poison_rate=max_poison_rate,
    )
    pipeline.bag_of_words.update_interval = MAINTAIN_EVERY
    return pipeline


def _chunks(cuts: Sequence[int], tweets):
    chunks, at, k = [], 0, 0
    while at < len(tweets):
        size = cuts[k % len(cuts)]
        chunks.append(tweets[at:at + size])
        at += size
        k += 1
    return chunks


def _poisoned(positions) -> List:
    tweets = list(STREAM)
    for n, index in enumerate(sorted(positions)):
        tweets[index] = corrupt_tweet(
            tweets[index], CORRUPTION_KINDS[n % len(CORRUPTION_KINDS)]
        )
    return tweets


def _state(pipeline: AggressionDetectionPipeline):
    bow = pipeline.bag_of_words
    normalizer = pipeline.normalizer
    return {
        "digest": model_state_digest(pipeline.model),
        "history": list(pipeline.evaluator.history),
        "cumulative": pipeline.evaluator.cumulative.as_dict(),
        "alerts": list(pipeline.alert_manager.alerts),
        "sample": pipeline.sampler.sample(),
        "offered": pipeline.sampler.n_offered,
        "sketch": normalizer.sketch_state(),
        "normalizer": (
            normalizer.observed, normalizer.n_transformed, normalizer.n_clipped
        ),
        "bow": (sorted(bow.words), list(bow.size_history)),
        "counters": {
            key: counter.value
            for key, counter in pipeline.metrics._counters.items()
        },
        "tallies": (
            pipeline.n_processed, pipeline.n_labeled, pipeline.n_unlabeled,
            pipeline.n_quarantined,
        ),
        "dead_letters": [
            (record.tweet_id, record.stage, record.error)
            for record in pipeline.dead_letters.records
        ] if pipeline.dead_letters is not None else [],
        "breaker": (
            None if pipeline.breaker is None
            else (pipeline.breaker.n_ok, pipeline.breaker.n_failed)
        ),
    }


def _both(chunks, tiers, quarantine, max_poison_rate=None):
    """Run the chunks row by row and block by block; return both end
    states and whether each side raised CircuitOpenError."""
    rows = _pipeline(quarantine, max_poison_rate)
    blocks = _pipeline(quarantine, max_poison_rate)
    tripped = []
    for pipeline, by_row in ((rows, True), (blocks, False)):
        try:
            for chunk, tier in zip(chunks, tiers):
                pipeline.set_degrade_tier(tier)
                if by_row:
                    for tweet in chunk:
                        pipeline.process(tweet)
                else:
                    pipeline.process_block(chunk)
        except CircuitOpenError:
            tripped.append(True)
        else:
            tripped.append(False)
    return _state(rows), _state(blocks), tripped


cut_lists = st.lists(st.integers(1, 300), min_size=1, max_size=8)
tier_lists = st.lists(st.sampled_from(list(DegradeTier)), min_size=1, max_size=8)


def _tiers(tiers, n_chunks):
    return [tiers[k % len(tiers)] for k in range(n_chunks)]


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cuts=cut_lists, tiers=tier_lists)
@example(cuts=[1], tiers=[DegradeTier.FULL])
# 200-row blocks straddle the 256-row fold and many maintenance passes.
@example(cuts=[200], tiers=[DegradeTier.FULL])
@example(cuts=[BLOCK_ROWS - 1, 3, BLOCK_ROWS], tiers=[DegradeTier.FULL])
# A tier switch between chunks, each way.
@example(
    cuts=[100, 57],
    tiers=[DegradeTier.FULL, DegradeTier.TEXT_ONLY, DegradeTier.NO_POS],
)
def test_blocks_leave_the_state_rows_leave(cuts, tiers):
    chunks = _chunks(cuts, STREAM)
    rows, blocks, tripped = _both(chunks, _tiers(tiers, len(chunks)), False)
    assert tripped == [False, False]
    assert rows["bow"][1], "no maintenance pass ran"
    assert blocks == rows


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cuts=cut_lists,
    tiers=tier_lists,
    positions=st.sets(st.integers(0, N_TWEETS - 1), max_size=12),
)
@example(cuts=[128], tiers=[DegradeTier.FULL], positions={0, 1, 127, 128, 300})
@example(cuts=[1], tiers=[DegradeTier.NO_POS], positions={5, 6})
def test_poisoned_rows_cut_the_block(cuts, tiers, positions):
    chunks = _chunks(cuts, _poisoned(positions))
    rows, blocks, tripped = _both(chunks, _tiers(tiers, len(chunks)), True)
    assert tripped == [False, False]
    assert rows["tallies"][3] == len(positions)
    assert blocks == rows


@pytest.mark.parametrize("cut", [1, 64, 256])
def test_an_open_breaker_leaves_the_row_state(cut):
    # 110 clean rows, then every other row poisoned: the cumulative
    # breaker (min 100 events, 5 %) opens inside a block.
    positions = set(range(110, 200, 2))
    chunks = _chunks([cut], _poisoned(positions))
    rows, blocks, tripped = _both(
        chunks, _tiers([DegradeTier.FULL], len(chunks)), True, 0.05
    )
    assert tripped == [True, True]
    assert 0 < rows["tallies"][3] < len(positions)
    assert blocks == rows

"""Shared fixtures: small calibrated datasets and feature instances."""

from __future__ import annotations

import json
import random
from typing import List

import pytest

from repro.data.synthetic import AbusiveDatasetGenerator
from repro.data.tweet import Tweet, UserProfile
from repro.streamml.instance import Instance


@pytest.fixture(scope="session")
def small_stream() -> List[Tweet]:
    """2k-tweet synthetic stream (session-cached; generation is pure)."""
    return AbusiveDatasetGenerator(n_tweets=2000, seed=123).generate_list()


@pytest.fixture(scope="session")
def medium_stream() -> List[Tweet]:
    """8k-tweet synthetic stream for accuracy-sensitive tests."""
    return AbusiveDatasetGenerator(n_tweets=8000, seed=7).generate_list()


@pytest.fixture()
def gaussian_instances() -> List[Instance]:
    """Linearly separable-ish 2-class Gaussian instances."""
    rng = random.Random(0)
    instances = []
    for _ in range(2000):
        label = rng.random() < 0.5
        x = (
            rng.gauss(2.0 if label else 0.0, 1.0),
            rng.gauss(0.0, 1.0),
            rng.gauss(-1.0 if label else 1.0, 1.5),
        )
        instances.append(Instance(x=x, y=int(label)))
    return instances


@pytest.fixture()
def example_tweet() -> Tweet:
    """One hand-built labeled tweet."""
    user = UserProfile(
        user_id="42",
        screen_name="tester",
        created_at=0.0,
        statuses_count=1000,
        listed_count=3,
        followers_count=250,
        friends_count=300,
    )
    return Tweet(
        tweet_id="1",
        text="@alex you are a fucking IDIOT #mad https://t.co/abc",
        created_at=86400.0 * 365,
        user=user,
        label="abusive",
    )


@pytest.fixture()
def with_retired_fast_math():
    """Re-shape a saved payload the way the commit before the numpy
    twin kernels were deleted wrote it: a ``fast_math`` key in the
    config, normaliser and SLR sections. Works on pipeline checkpoints,
    the previous flat micro-batch engine state and serve snapshots alike
    (all three carry ``config`` / ``normalizer`` / ``model`` at the top
    level)."""

    def reshape(payload, flag: bool):
        payload = json.loads(json.dumps(payload))
        payload["config"]["fast_math"] = flag
        payload["normalizer"]["fast_math"] = flag
        if payload["model"]["kind"] == "slr":
            payload["model"]["model"]["fast_math"] = flag
        return payload

    return reshape


def make_instance(x, y=None, **kwargs) -> Instance:
    """Terse instance constructor for tests."""
    return Instance(x=tuple(float(v) for v in x), y=y, **kwargs)

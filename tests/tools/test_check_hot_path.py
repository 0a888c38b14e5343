"""The hot-path lint flags what it says it flags, and nothing else."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_hot_path", ROOT / "tools" / "check_hot_path.py"
)
check_hot_path = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_hot_path)

OFFENDING = '''
import functools
import re
from functools import cached_property, lru_cache


class Token:
    @cached_property
    def lower(self):
        return self.text.lower()

    @functools.lru_cache(maxsize=None)
    def tag(self):
        return re.compile("x")


@lru_cache(maxsize=65536)
def word_strength_lower(lower):
    return 0
'''

CLEAN = '''
import re
from functools import lru_cache

_PATTERN = re.compile("x")


@lru_cache(maxsize=None)
def sentiment_lexicon():
    """Zero-argument singleton: built once, not a per-word memo."""
    return {}


class Token:
    __slots__ = ("text", "lower")
'''


SCAN_OFFENDING = '''
import re

_PATTERN = re.compile(r"\\s*(\\w+)")


def tokenize(text):
    return [m.group(m.lastindex) for m in _PATTERN.finditer(text)]
'''

SCAN_CLEAN = '''
import re

_surfaces = re.compile(r"\\s*(\\w+)").findall


def tokenize(text):
    """No finditer here (the word in a docstring is not a call)."""
    return list(map(str.lower, _surfaces(text)))
'''


SERVE_OFFENDING = '''
import asyncio


class Server:
    async def start(self):
        self._server = await asyncio.start_server(self._handle, "", 0)

    async def _handle(self, reader: asyncio.StreamReader, writer):
        pass

    def _count(self, endpoint, status):
        self.metrics.counter(
            "requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.metrics.histogram("request_seconds", endpoint=endpoint)
'''

SERVE_CLEAN = '''
class Server:
    def _request_handles(self, endpoint, status):
        return self.metrics.counter("requests_total", endpoint=endpoint)

    def _count(self, endpoint, status):
        self._handles[endpoint, status][0].inc()
        self.metrics.counter("responses_total").inc()
'''


STREAMML_OFFENDING = '''
import dataclasses
from dataclasses import replace


class Instance:
    def with_label(self, y):
        return dataclasses.replace(self, y=y)

    def with_weight(self, weight):
        return replace(self, weight=weight)
'''

STREAMML_CLEAN = '''
class Instance:
    def with_label(self, y):
        return Instance(self.x, y, self.weight, self.timestamp, self.tweet_id)

    def describe(self):
        return self.name.replace("_", " ")
'''


ENGINE_KIND_OFFENDING = '''
from repro.engine import microbatch
from repro.engine.microbatch import MicroBatchEngine
from repro.engine.sequential import SequentialEngine


def batch_size(engine):
    if isinstance(engine, MicroBatchEngine):
        return engine.batch_size
    if isinstance(engine, (microbatch.MicroBatchEngine, SequentialEngine)):
        return 1
    return 1000 if isinstance(engine, SequentialEngine | None) else 0
'''

ENGINE_KIND_CLEAN = '''
from repro.engine.microbatch import MicroBatchEngine


def batch_size(engine, result):
    """isinstance(engine, MicroBatchEngine) in a docstring is fine."""
    if isinstance(result, dict):
        return len(result)
    return MicroBatchEngine(batch_size=engine.batch_size).batch_size
'''


TELEMETRY_OFFENDING = '''
def process(self, block):
    for x in block:
        self.stage_hist.observe(0.1)
        if x:
            self.m_labeled.inc()
    for index, outcome in enumerate(block):
        self.partition_hist.observe_repeated(outcome, 1)
'''

TELEMETRY_CLEAN = '''
def process(self, block):
    """.observe() per row in a docstring is fine."""
    n_labeled = 0
    for x in block:
        n_labeled += bool(x)
    while block:
        block = block[1:]
    self.stage_hist.observe_repeated(0.1, len(block))
    self.m_labeled.inc(n_labeled)
    self.partition_hist.observe_many(o for o in block)
'''


def _messages(source: str, filename: str):
    return [
        message
        for _, _, message in check_hot_path.find_hot_path_offenses(
            source, filename
        )
    ]


def test_engine_kind_tests_flagged_outside_engine_only():
    def engine_messages(source, filename):
        return [
            message
            for _, _, message in check_hot_path.find_engine_kind_offenses(
                source, filename
            )
        ]

    messages = engine_messages(
        ENGINE_KIND_OFFENDING, "src/repro/reliability/supervisor.py"
    )
    assert messages == [
        "isinstance(..., MicroBatchEngine) outside engine/ "
        "(drive the Engine protocol)",
        "isinstance(..., MicroBatchEngine | SequentialEngine) outside "
        "engine/ (drive the Engine protocol)",
        "isinstance(..., SequentialEngine) outside engine/ "
        "(drive the Engine protocol)",
    ]
    assert len(engine_messages(ENGINE_KIND_OFFENDING, "src/repro/cli.py")) == 3
    # The engines themselves may know their own classes.
    assert engine_messages(
        ENGINE_KIND_OFFENDING, "src/repro/engine/replay.py"
    ) == []
    assert engine_messages(ENGINE_KIND_CLEAN, "src/repro/cli.py") == []
    assert check_hot_path.check_tree(
        ROOT / check_hot_path.CONTRACT_ROOT,
        check_hot_path.find_engine_kind_offenses,
    ) == []


def test_offending_snippet_is_flagged_on_the_text_path():
    messages = _messages(OFFENDING, "src/repro/text/tokenizer.py")
    assert sum("cached_property" in m for m in messages) == 1
    assert sum("lru_cache" in m for m in messages) == 2
    assert sum("re.compile" in m for m in messages) == 1
    assert len(messages) == 4
    assert len(_messages(OFFENDING, "src/repro/core/features.py")) == 4


def test_memo_rule_is_scoped_to_the_record_paths():
    messages = _messages(OFFENDING, "src/repro/data/vocab.py")
    assert messages == [
        "re.compile in function body (compile at module level)"
    ]


def test_finditer_is_flagged_on_the_text_path_only():
    for filename in ("src/repro/text/tokenizer.py", "src/repro/core/features.py"):
        messages = _messages(SCAN_OFFENDING, filename)
        assert len(messages) == 1 and "finditer" in messages[0]
        assert _messages(SCAN_CLEAN, filename) == []
    assert _messages(SCAN_OFFENDING, "src/repro/core/explain.py") == []


EXTRA_PASSES = '''
from repro.core.preprocessing import preprocess_tokens, raw_word_tokens
from repro.text.tokenizer import count_sentences, tokenize


def features(self, text, raw):
    view = preprocess_tokens(raw) if self.preprocessing else raw_word_tokens(raw)
    positive, negative = self._sentiment.strengths(raw)
    return view, count_sentences(text), positive, negative
'''

ONE_WALK = '''
from repro.text.analysis import analyze


def features(self, text):
    """No preprocess_tokens( or .strengths( here: a docstring is no call."""
    return analyze(text, None, self.preprocessing)
'''


def test_second_text_passes_flagged_in_the_extractor_only():
    messages = _messages(EXTRA_PASSES, "src/repro/core/features.py")
    assert sorted(m.split("(")[0] for m in messages) == [
        "count_sentences", "preprocess_tokens", "raw_word_tokens",
        "strengths",
    ]
    assert all("one walk" in m for m in messages)
    assert _messages(ONE_WALK, "src/repro/core/features.py") == []
    for filename in (
        "src/repro/core/preprocessing.py", "src/repro/text/analysis.py"
    ):
        assert _messages(EXTRA_PASSES, filename) == []


SEPARATE_LEARN = '''
def _predict(self, xs, ys):
    predict = self.model.predict_proba_one
    for x, y in zip(xs, ys):
        proba = predict(x)
        if y is not None:
            self.model.learn_one(Instance(x, y))


def _predict_aliased(self, xs, ys):
    predict = self.model.predict_proba_one
    learn = self.model.learn_one
    for x, y in zip(xs, ys):
        proba = predict(x)
        if y is not None:
            learn(Instance(x, y))
'''

FUSED_LEARN = '''
def _predict(self, xs, ys):
    """No .learn_one( here: a docstring is no call."""
    test_then_train = self.model.test_then_train
    for x, y in zip(xs, ys):
        if y is not None:
            proba = test_then_train(Instance(x, y))
'''


def test_separate_learn_flagged_in_the_pipeline_only():
    messages = _messages(SEPARATE_LEARN, "src/repro/core/pipeline.py")
    assert messages == [
        ".learn_one in the prequential loop (predict and learn a "
        "labelled row in one test_then_train call)"
    ] * 2
    assert _messages(FUSED_LEARN, "src/repro/core/pipeline.py") == []
    for filename in (
        "src/repro/streamml/arf.py", "src/repro/core/sessions.py",
        "src/repro/engine/microbatch.py",
    ):
        assert _messages(SEPARATE_LEARN, filename) == []


def test_stream_layer_and_labelled_count_lookups_flagged_in_serve():
    messages = _messages(SERVE_OFFENDING, "src/repro/serve/server.py")
    assert sum("start_server" in m for m in messages) == 1
    assert sum("StreamReader" in m for m in messages) == 1
    assert sum("in _count" in m for m in messages) == 2
    assert len(messages) == 4
    # The serve rules stop at the serve directory.
    assert _messages(SERVE_OFFENDING, "src/repro/engine/microbatch.py") == []
    assert _messages(SERVE_CLEAN, "src/repro/serve/server.py") == []


def test_dataclasses_replace_flagged_under_streamml_only():
    messages = _messages(STREAMML_OFFENDING, "src/repro/streamml/instance.py")
    assert len(messages) == 2
    assert all("dataclasses.replace" in m for m in messages)
    assert _messages(STREAMML_OFFENDING, "src/repro/data/tweet.py") == []
    assert _messages(STREAMML_CLEAN, "src/repro/streamml/instance.py") == []


def test_per_row_telemetry_flagged_in_the_block_modules_only():
    for filename in (
        "src/repro/core/pipeline.py", "src/repro/engine/microbatch.py"
    ):
        messages = _messages(TELEMETRY_OFFENDING, filename)
        assert messages == [
            ".observe() inside a for loop (book once per block, after "
            "the loop)",
            ".inc() inside a for loop (book once per block, after the "
            "loop)",
            ".observe_repeated() inside a for loop (book once per block, "
            "after the loop)",
        ]
        assert _messages(TELEMETRY_CLEAN, filename) == []
    for filename in (
        "src/repro/engine/sequential.py", "src/repro/serve/server.py"
    ):
        assert _messages(TELEMETRY_OFFENDING, filename) == []


def test_clean_snippet_passes():
    assert _messages(CLEAN, "src/repro/text/lexicons.py") == []


LAZY_TWEET = '''
from dataclasses import dataclass, field


class _Lazy:
    def __get__(self, obj, owner):
        return 0


@dataclass
class UserProfile:
    user_id: str
    followers_count = _Lazy()

    def __getattribute__(self, name):
        return object.__getattribute__(self, name)


@dataclass
class Tweet:
    tweet_id: str
    user: UserProfile = field(default_factory=lambda: UserProfile("0"))

    def __getattr__(self, name):
        return None

    @property
    def text(self):
        return ""

    @text.setter
    def text(self, value):
        pass


class TweetLine:
    def __getattr__(self, name):
        return None

    @property
    def lazy(self):
        return None
'''

PLAIN_TWEET = '''
from dataclasses import dataclass, field


@dataclass
class Tweet:
    tweet_id: str
    label: str = None
    user: object = field(default_factory=dict)

    def is_labeled(self):
        return self.label is not None
'''


def test_lazy_tweet_fields_flagged_in_the_tweet_module_only():
    messages = _messages(LAZY_TWEET, "src/repro/data/tweet.py")
    assert messages == [
        "class-level descriptor on UserProfile (keep the field a plain "
        "dataclass field)",
        "__getattribute__ on UserProfile (every field read would pay it; "
        "keep the tweet plain)",
        "__getattr__ on Tweet (every field read would pay it; keep the "
        "tweet plain)",
        "property on Tweet (a field read through a descriptor; keep the "
        "field plain)",
        "property on Tweet (a field read through a descriptor; keep the "
        "field plain)",
    ]
    # The record may delegate; other modules are not the rule's concern.
    assert _messages(PLAIN_TWEET, "src/repro/data/tweet.py") == []
    assert _messages(LAZY_TWEET, "src/repro/data/loader.py") == []


def test_the_tweet_module_is_a_default_root():
    assert "src/repro/data/tweet.py" in check_hot_path.DEFAULT_ROOTS
    assert check_hot_path.check_tree(ROOT / "src/repro/data/tweet.py") == []


def test_the_tree_is_clean():
    for root in check_hot_path.DEFAULT_ROOTS:
        assert check_hot_path.check_tree(ROOT / root) == []

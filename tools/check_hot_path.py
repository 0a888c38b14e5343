#!/usr/bin/env python
"""Lint: keep per-tweet hot paths free of known slow patterns.

The feature-extraction and text-analysis layers run once per tweet, so
two patterns that are harmless elsewhere are throughput bugs there:

* ``re.compile(...)`` inside a function body — recompiles (or at best
  re-hits the tiny ``re`` internal cache for) the pattern on every
  call. Compile at module import time instead.
* ``copy.deepcopy(...)`` / ``deepcopy(...)`` anywhere in the hot
  modules — deep copies of models or normalizer state cost more than
  the work they wrap. Use ``fresh()`` + ``merge()``,
  ``structure_copy()``, or ``clone()`` instead (all bit-exact; see
  DESIGN.md §9).
* ``SharedMemory(...)`` outside ``engine/runners.py`` — partition code
  must never attach segments itself; one attach per (worker, version)
  happens inside ``StateBroadcast.value()`` behind the decode cache.
  A per-call attach would turn the zero-copy broadcast back into a
  per-task syscall + mmap.
* numpy array allocation (``np.array``/``asarray``/``zeros``/
  ``empty``/``ones``/``full``/``concatenate``) inside a loop body —
  the columnar kernels hoist allocations out of per-row loops and
  reuse buffers (``out=``, in-place ops); an allocation per tweet
  re-introduces the per-row overhead the columnar layout removed.
* ``pickle.dumps``/``pickle.dump`` inside ``engine/`` outside
  ``engine/runners.py`` — tweet and broadcast payloads are encoded
  exactly once per batch by the shared-memory transports
  (``StateBroadcast``, ``TweetBlock``); ad-hoc pickling in engine code
  re-introduces the per-partition (or per-batch-per-task) serialization
  this transport exists to remove.

* ``functools.cached_property`` anywhere, and ``functools.lru_cache``
  / ``cache`` on a function that takes arguments, under
  ``src/repro/text`` and in ``src/repro/core/features.py`` — on
  Python 3.11 every ``cached_property`` fill takes an ``RLock`` and an
  ``lru_cache`` is a call frame plus a hash per *occurrence*; per-word
  facts are fields of the interned ``Token`` record (one table lookup
  per token, DESIGN.md §9). The zero-argument lexicon accessors in
  ``text/lexicons.py`` are import-time singletons, not per-call memos,
  and stay legal.

* ``.finditer(`` under ``src/repro/text`` and in
  ``src/repro/core/features.py`` — iterating match objects in Python
  and calling ``group()`` on each costs more than the regex itself;
  the token scan is one one-group ``findall`` plus one table ``map``
  (DESIGN.md §9 "One-pass text analysis").

* in ``core/features.py``: a call to ``preprocess_tokens(``,
  ``raw_word_tokens(``, ``count_sentences(`` or ``.strengths(`` — the
  extractor hands the raw tokens to ``text.analysis.analyze``, whose one
  walk reads the word view, the sentence count and both sentiment
  strengths off the token records (DESIGN.md §9 "One-pass text
  analysis"); each of those calls is another pass over the tweet.

* in ``core/pipeline.py``: ``.learn_one`` (called or aliased) — the
  prequential loop predicts and learns a labelled row in one
  ``test_then_train`` call (one sort to the leaf, one naive-Bayes vote;
  DESIGN.md §9 "Classifier kernel"); a separate ``learn_one`` after the
  prediction does that row's model work twice.

* under ``src/repro/serve``: ``asyncio.start_server`` /
  ``asyncio.open_connection`` / ``StreamReader`` / ``StreamWriter`` —
  the wire path is one selector-driven connection object on raw
  sockets (``serve/wire.py``, DESIGN.md §9 "Serving wire path"); the
  stream layer costs a Task, a transport and ~4 loop iterations per
  request — and keyword-labelled ``metrics.counter(...)`` /
  ``metrics.histogram(...)`` inside ``_count``, which runs once per
  response and must use the cached ``(endpoint, status)`` handles.

* under ``src/repro/streamml``: ``dataclasses.replace(...)`` /
  ``replace(...)`` — ``Instance`` copies are made once per tweet (and
  once per ensemble member per learn); ``replace`` walks ``fields()``
  and builds a kwargs dict before calling the same constructor, twice
  the cost of calling it directly (``Instance.with_*``).

* in ``core/pipeline.py`` and ``engine/microbatch.py``: a metric
  ``.observe(`` / ``.observe_repeated(`` / ``.inc(`` call inside a
  ``for`` loop body — both engines book the per-tweet stages once per
  block (one ``observe_repeated`` per stage, one ``inc`` per counter,
  DESIGN.md §9 "Histogram amortisation"); a booking per row puts the
  registry back on the per-tweet path. Sum inside the loop, book after
  it (``Histogram.observe_many`` for distinct values).

* in ``data/tweet.py``, inside ``class Tweet`` or ``class
  UserProfile``: ``__getattr__`` / ``__getattribute__``, ``@property``
  (or ``cached_property``, a ``.setter``), or a class-level descriptor
  (a class attribute bound to a call other than ``dataclasses.field``).
  Every stage reads tweet fields, so they stay plain dataclass fields:
  measured on CPython 3.11, a ``__getattr__`` on ``Tweet`` made every
  field read 85–101 ns instead of 15.6 ns (a lazy-``Tweet`` prototype
  lost 15 % on ``train_mb``), and per-field properties or descriptors
  55 ns instead of 11 ns (that prototype lost 6 % on ``train_seq``).
  Laziness belongs to the JSONL record, ``TweetLine``, which may
  delegate attribute reads to its parsed tweet.

* anywhere under ``src/repro`` outside ``engine/``: ``isinstance(...,
  MicroBatchEngine | SequentialEngine)`` — the supervisor and the CLI
  drive the ``Engine`` protocol (``repro.engine.protocol``, DESIGN.md
  §3); an engine-kind branch re-grows the per-engine code paths the
  protocol replaced.

Walks the AST so occurrences in docstrings and comments don't
false-positive, and exits non-zero listing any offending call sites.

Usage: python tools/check_hot_path.py [root ...]
       (default: src/repro/core src/repro/text src/repro/streamml
       src/repro/engine src/repro/serve src/repro/data/tweet.py, and
       src/repro for the engine-contract rule)
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Callable, Iterator, List, Tuple

DEFAULT_ROOTS = (
    "src/repro/core",
    "src/repro/text",
    "src/repro/streamml",
    "src/repro/engine",
    "src/repro/serve",
    "src/repro/data/tweet.py",
)

#: The one module allowed to attach shared-memory segments.
SHM_ALLOWED_FILES = ("runners.py",)

#: The one engine module allowed to call pickle directly (it owns the
#: one-encode-per-batch transports); everything else in engine/ must go
#: through StateBroadcast / TweetBlock.
PICKLE_ALLOWED_FILES = ("runners.py",)

NUMPY_MODULE_NAMES = {"np", "numpy", "_np"}
NUMPY_ALLOCATORS = {
    "array",
    "asarray",
    "zeros",
    "empty",
    "ones",
    "full",
    "concatenate",
}


def _is_attr_call(node: ast.Call, module: str, name: str) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == name
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == module
    )


def _is_shared_memory_call(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Name) and node.func.id == "SharedMemory"
    ) or (
        isinstance(node.func, ast.Attribute)
        and node.func.attr == "SharedMemory"
    )


def _is_pickle_call(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in ("dumps", "dump")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "pickle"
    )


def _is_numpy_allocation(node: ast.Call) -> bool:
    return (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in NUMPY_ALLOCATORS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in NUMPY_MODULE_NAMES
    )


def _decorator_name(node: ast.expr) -> str:
    """``cached_property`` for ``@functools.cached_property`` and
    ``lru_cache`` for ``@lru_cache(maxsize=...)`` alike."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _memo_decorator_offenses(
    tree: ast.AST,
) -> Iterator[Tuple[int, int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        takes_arguments = bool(
            node.args.posonlyargs or node.args.args or node.args.vararg
            or node.args.kwonlyargs or node.args.kwarg
        )
        for decorator in node.decorator_list:
            name = _decorator_name(decorator)
            if name == "cached_property" or (
                name in ("lru_cache", "cache") and takes_arguments
            ):
                yield (
                    decorator.lineno,
                    decorator.col_offset,
                    f"{name} on the text path (make it a field of the "
                    "interned Token record)",
                )


def _finditer_offenses(tree: ast.AST) -> Iterator[Tuple[int, int, str]]:
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "finditer"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "finditer on the text path (scan with a one-group "
                "findall and map the surfaces through the word table)",
            )


#: Second passes over a tweet's tokens, banned from the extractor.
EXTRA_TEXT_PASSES = {
    "preprocess_tokens", "raw_word_tokens", "count_sentences", "strengths",
}


def _extra_text_pass_offenses(
    tree: ast.AST,
) -> Iterator[Tuple[int, int, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (
            func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else ""
        )
        if name in EXTRA_TEXT_PASSES:
            yield (
                node.lineno,
                node.col_offset,
                f"{name}() in the extractor (a second pass over the "
                "tokens; analyze() reads it off the one walk)",
            )


def _separate_learn_offenses(tree: ast.AST) -> Iterator[Tuple[int, int, str]]:
    # Any ``.learn_one`` read: a call, or a local alias bound for the loop.
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "learn_one":
            yield (
                node.lineno,
                node.col_offset,
                ".learn_one in the prequential loop (predict and learn a "
                "labelled row in one test_then_train call)",
            )


#: The asyncio stream layer, banned from the serving wire path.
SERVE_BANNED_NAMES = {
    "start_server", "open_connection", "StreamReader", "StreamWriter",
}


def _serve_offenses(tree: ast.AST) -> Iterator[Tuple[int, int, str]]:
    for node in ast.walk(tree):
        name = (
            node.attr if isinstance(node, ast.Attribute)
            else node.id if isinstance(node, ast.Name) else ""
        )
        if name in SERVE_BANNED_NAMES:
            yield (
                node.lineno,
                node.col_offset,
                f"{name} on the serving wire path (use the selector-"
                "driven Connection in serve/wire.py)",
            )
        if isinstance(node, ast.FunctionDef) and node.name == "_count":
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("counter", "histogram")
                    and call.keywords
                ):
                    yield (
                        call.lineno,
                        call.col_offset,
                        f"labelled metrics.{call.func.attr}() lookup per "
                        "response in _count (cache the handle)",
                    )


def _dataclass_replace_offenses(
    tree: ast.AST,
) -> Iterator[Tuple[int, int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            _is_attr_call(node, "dataclasses", "replace")
            or (isinstance(node.func, ast.Name) and node.func.id == "replace")
        ):
            yield (
                node.lineno,
                node.col_offset,
                "dataclasses.replace on the instance path (call the "
                "constructor, as Instance.with_* do)",
            )


#: The plain records every stage reads fields off (``data/tweet.py``).
PLAIN_RECORD_CLASSES = {"Tweet", "UserProfile"}
SLOW_ATTRIBUTE_HOOKS = {"__getattr__", "__getattribute__"}
SLOW_FIELD_DECORATORS = {"property", "cached_property", "setter", "getter"}


def _is_field_spec(node: ast.expr) -> bool:
    """``field(...)`` / ``dataclasses.field(...)``: a dataclass field
    default, not a descriptor."""
    return isinstance(node, ast.Call) and _decorator_name(node) == "field"


def _plain_record_offenses(
    tree: ast.AST,
) -> Iterator[Tuple[int, int, str]]:
    for cls in ast.walk(tree):
        if not (
            isinstance(cls, ast.ClassDef)
            and cls.name in PLAIN_RECORD_CLASSES
        ):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in SLOW_ATTRIBUTE_HOOKS:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{node.name} on {cls.name} (every field read "
                        "would pay it; keep the tweet plain)",
                    )
                for decorator in node.decorator_list:
                    if _decorator_name(decorator) in SLOW_FIELD_DECORATORS:
                        yield (
                            decorator.lineno,
                            decorator.col_offset,
                            f"property on {cls.name} (a field read "
                            "through a descriptor; keep the field plain)",
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if isinstance(value, ast.Call) and not _is_field_spec(value):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"class-level descriptor on {cls.name} (keep "
                        "the field a plain dataclass field)",
                    )


#: The modules whose loops must not book telemetry per row.
BLOCK_TELEMETRY_FILES = (("core", "pipeline.py"), ("engine", "microbatch.py"))
TELEMETRY_METHODS = {"observe", "observe_repeated", "inc"}


def _per_row_telemetry_offenses(
    tree: ast.AST,
) -> Iterator[Tuple[int, int, str]]:
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TELEMETRY_METHODS
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f".{node.func.attr}() inside a for loop (book once "
                    "per block, after the loop)",
                )


def find_hot_path_offenses(
    source: str, filename: str = ""
) -> Iterator[Tuple[int, int, str]]:
    """Yield (line, column, message) for every offending call.

    ``filename`` gates the file-scoped rules: shared-memory attach is
    legal only in :data:`SHM_ALLOWED_FILES`, direct pickling inside
    an ``engine/`` directory only in :data:`PICKLE_ALLOWED_FILES`, and
    memo decorators and ``finditer`` loops are banned in a ``text/``
    directory and in ``core/features.py`` (there the record is the
    memo and the scan runs in C), second passes over the tokens in
    ``core/features.py`` and ``learn_one`` reads in
    ``core/pipeline.py``; the asyncio
    stream layer and per-response labelled metric lookups are banned
    in a ``serve/`` directory, ``dataclasses.replace`` in a
    ``streamml/`` directory, metric bookings inside ``for`` loops
    in :data:`BLOCK_TELEMETRY_FILES`, and attribute hooks, properties
    and descriptors on the plain tweet records in ``data/tweet.py``.
    """
    tree = ast.parse(source)
    parts = Path(filename).parts
    if "text" in parts or parts[-2:] == ("core", "features.py"):
        yield from _memo_decorator_offenses(tree)
        yield from _finditer_offenses(tree)
    if parts[-2:] == ("core", "features.py"):
        yield from _extra_text_pass_offenses(tree)
    if parts[-2:] == ("core", "pipeline.py"):
        yield from _separate_learn_offenses(tree)
    if "serve" in parts:
        yield from _serve_offenses(tree)
    if "streamml" in parts:
        yield from _dataclass_replace_offenses(tree)
    if parts[-2:] in BLOCK_TELEMETRY_FILES:
        yield from _per_row_telemetry_offenses(tree)
    if parts[-2:] == ("data", "tweet.py"):
        yield from _plain_record_offenses(tree)
    # re.compile is only an offense inside a function body; module-level
    # compiles are exactly the fix this lint wants.
    function_nodes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    in_function = set()
    for fn in function_nodes:
        for node in ast.walk(fn):
            in_function.add(id(node))
    # numpy allocations are only an offense inside a loop body: the
    # batch kernels allocate per batch, never per row.
    in_loop = set()
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.AsyncFor, ast.While)):
            for node in ast.walk(loop):
                if node is not loop:
                    in_loop.add(id(node))
    shm_allowed = Path(filename).name in SHM_ALLOWED_FILES
    in_engine = "engine" in Path(filename).parts
    pickle_allowed = (
        not in_engine or Path(filename).name in PICKLE_ALLOWED_FILES
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if _is_attr_call(node, "re", "compile") and id(node) in in_function:
            yield (
                node.lineno,
                node.col_offset,
                "re.compile in function body (compile at module level)",
            )
        elif _is_attr_call(node, "copy", "deepcopy") or (
            isinstance(node.func, ast.Name) and node.func.id == "deepcopy"
        ):
            yield (
                node.lineno,
                node.col_offset,
                "deepcopy on a hot path (use fresh()+merge()/"
                "structure_copy()/clone())",
            )
        elif _is_shared_memory_call(node) and not shm_allowed:
            yield (
                node.lineno,
                node.col_offset,
                "SharedMemory attach in partition code (attach once per "
                "(worker, version) via StateBroadcast.value())",
            )
        elif _is_pickle_call(node) and not pickle_allowed:
            yield (
                node.lineno,
                node.col_offset,
                "direct pickle in engine code (encode once per batch "
                "via StateBroadcast / TweetBlock)",
            )
        elif _is_numpy_allocation(node) and id(node) in in_loop:
            yield (
                node.lineno,
                node.col_offset,
                "numpy array allocation inside a loop (allocate per "
                "batch and reuse buffers / out=)",
            )


#: Concrete engine classes nothing outside ``engine/`` may test for.
ENGINE_CLASSES = {"MicroBatchEngine", "SequentialEngine"}

#: Where the engine-contract rule applies by default.
CONTRACT_ROOT = "src/repro"


def find_engine_kind_offenses(
    source: str, filename: str = ""
) -> Iterator[Tuple[int, int, str]]:
    """Yield (line, column, message) for every ``isinstance`` test of a
    concrete engine class, unless ``filename`` is in ``engine/``."""
    if Path(filename).parent.name == "engine":
        return
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        names = sorted({
            sub.attr if isinstance(sub, ast.Attribute) else sub.id
            for sub in ast.walk(node.args[1])
            if isinstance(sub, (ast.Attribute, ast.Name))
        } & ENGINE_CLASSES)
        if names:
            yield (
                node.lineno,
                node.col_offset,
                f"isinstance(..., {' | '.join(names)}) outside engine/ "
                "(drive the Engine protocol)",
            )


def check_tree(
    root: Path,
    find: Callable[
        [str, str], Iterator[Tuple[int, int, str]]
    ] = find_hot_path_offenses,
) -> List[str]:
    """Offending ``path:line:col: message`` strings under ``root``."""
    failures = []
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in paths:
        source = path.read_text(encoding="utf-8")
        for line, col, message in find(source, str(path)):
            failures.append(f"{path}:{line}:{col}: {message}")
    return failures


def main(argv: List[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(r) for r in DEFAULT_ROOTS]
    failures = [f for root in roots for f in check_tree(root)]
    contract_roots = [Path(a) for a in argv] or [Path(CONTRACT_ROOT)]
    failures += [
        f
        for root in contract_roots
        for f in check_tree(root, find_engine_kind_offenses)
    ]
    if failures:
        print("hot-path offenses found:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

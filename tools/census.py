#!/usr/bin/env python3
"""Reachability census: which ``src/`` code does the product run?

Two views of one question, both stdlib only.

* ``--check`` (static; a CI lint beside ``check_hot_path.py``): every
  top-level function, class and constant under ``src/repro`` must be
  named by code outside ``tests/`` -- ``src/`` itself,
  ``benchmarks/``, ``examples/`` or ``tools/`` -- or sit in
  :data:`KEEP` with its reason. A name inside the definition's own
  body, an assignment target, an ``__init__.py`` re-export and an
  ``__all__`` string do not count. Every ``(subcommand, flag)`` pair
  of ``repro``'s argument parser must be named -- the subcommand and
  the flag in one command (:func:`_commands`) -- by a file under
  ``tests/``, ``benchmarks/`` or ``examples/``, or by the CI workflow,
  or sit in :data:`KEEP_FLAGS` with its reason: a flag nothing sets is
  a flag nothing checks. (This
  file's own :data:`SURFACE` and the markdown docs do not count: they
  run or describe a flag but check no effect.) Exits 1 and lists each
  offender otherwise.
* the default run (dynamic): runs the product surface
  (:data:`SURFACE`: ``repro run`` on both engines and runners with
  every model and the reliability flags, ``repro serve`` over HTTP and
  JSONL, ``repro snapshot``/``classify``/``simulate``, the examples,
  the ledger smoke and the paper-figure benches at a small size) with
  a ``sys.setprofile`` / ``threading.setprofile`` call hook, and lists
  every ``src/`` function and method that no process entered, with
  its line count, sorted by :func:`classify` into what only tests
  reach, what :data:`KEEP` holds (with its reason), dunder methods and
  rare paths that product code calls (a method only where the calling
  file names its class or a base of it).

The hook reaches every Python process the surface starts: it is a
``sitecustomize`` module on ``PYTHONPATH``, which children inherit.
Process-pool workers leave through ``os._exit``, so ``atexit`` never
runs there; after each fork the hook registers a
``multiprocessing.util.Finalize``, which the worker's bootstrap runs
on its way out, so code entered only inside workers is counted.

Usage::

    python tools/census.py --check   # static gate, seconds
    python tools/census.py           # dynamic census, minutes
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
READER_DIRS = ("src", "benchmarks", "examples", "tools")
TEST_DIRS = ("tests",)
#: Where a CLI flag may be set with a check of its effect.
FLAG_READERS = ("tests", "benchmarks", "examples", ".github/workflows/ci.yml")

#: Definitions the census may not delete, keyed by dotted name (a key
#: also covers everything defined inside it), each with its reason.
KEEP: Dict[str, str] = {
    "repro.engine.runners._BROADCAST_LOCK":
        "safety: guards the broadcast cache against the pool's feeder thread",
    "repro.engine.runners.live_segment_names":
        "leak probe: tests and the CI smoke assert no segment outlives a run",
    "repro.engine.runners.broadcast_cache_size":
        "leak probe: the bounded worker cache is asserted by tests",
    "repro.streamml.naive_bayes.gaussian_pdf":
        "reference kernel the Gaussian-table contract tests compare against",
    "repro.core.features.TIER_SKIPPED_FEATURES":
        "the tier contract the degraded-extraction tests compare against",
    "repro.core.normalization.MinMaxNoOutliersNormalizer.bounds":
        "the sketch bounds the accuracy contract tests pin",
    "repro.core.preprocessing.raw_word_tokens":
        "reference word view the one-walk analyzer is tested against",
    "repro.core.checkpoint.pipeline_from_dict":
        "inverse of pipeline_to_dict: the resume-equivalence oracle",
    "repro.obs.metrics.MetricsRegistry.counter_value":
        "test oracle: reads a counter without registering one",
    "repro.serve.admission.AdmissionController.inflight":
        "oracle the hostile-wire suite (kept unedited) reads",
    "repro.engine.replay.run_chaos_scenario":
        "chaos harness: the -m chaos suite and the CI chaos smoke drive it",
    "repro.reliability.faults.corruption_mask":
        "fault-injection harness: seeded poison positions for the DLQ tests",
    "repro.reliability.faults.corrupting_stream":
        "fault-injection harness: a stream poisoned at seeded positions",
    "repro.engine.runners.TweetBlock.live":
        "the serial runner's no-transport block",
    "repro.core.sampling.BoostedRandomSampler.aggressive_fraction_in_sample":
        "the boosted-vs-uniform sampling comparison reads it (ROADMAP item 8)",
    "repro.core.explain":
        "AlertExplainer: alert provenance decides it (ROADMAP item 9)",
    "repro.core.labeling":
        "the sample-label loop is measured or cut as one (ROADMAP item 8)",
    "repro.engine.cluster":
        "calibrated or deleted with `repro simulate` (ROADMAP item 7c)",
    "repro.serve.server.AggressionServer.refused":
        "serve/wire.py calls it as `self.handler.refused(...)`: the wire "
        "path imports no server class, so no product file names its owner",
}

#: ``(subcommand, flag)`` pairs nothing under :data:`FLAG_READERS` sets,
#: each with the reason it stays.
KEEP_FLAGS: Dict[Tuple[str, str], str] = {
    ("serve", "--host"):
        "deployment address: which interface to bind is the operator's "
        "choice, and every check binds the loopback default",
}


# ----------------------------------------------------------------------
# Definitions and names
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Definition:
    """One function, method, class or constant in a source module."""

    module: str         # dotted module name
    qualname: str       # Class.method, outer.inner
    path: str           # relative to the scanned root
    first_line: int     # first decorator, else the def line
    last_line: int
    kind: str           # "function", "class" or "constant"
    top_level: bool
    stub: bool          # body is a docstring / ... / pass / raise only
    bases: Tuple[str, ...] = ()     # a class's base names, as written

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def n_lines(self) -> int:
        return self.last_line - self.first_line + 1


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_stub(node: ast.AST) -> bool:
    body = [
        stmt for stmt in node.body
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant))
    ]
    return all(isinstance(stmt, (ast.Pass, ast.Raise)) for stmt in body)


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in getattr(node, "decorator_list", ())
    )


def _base_name(node: ast.expr) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[T]
        return _base_name(node.value)
    return getattr(node, "id", "")


def definitions(src: Path, root: Optional[Path] = None) -> List[Definition]:
    """Every def, class and top-level constant in the package under ``src``."""
    root = root or src
    found: List[Definition] = []
    for path in sorted(src.rglob("*.py")):
        module = _module_name(path, src)
        rel = str(path.relative_to(root))
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))

        def visit(body, prefix: str, top: bool) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    first = min(
                        [node.lineno]
                        + [d.lineno for d in node.decorator_list]
                    )
                    qualname = prefix + node.name
                    is_class = isinstance(node, ast.ClassDef)
                    found.append(Definition(
                        module, qualname, rel, first, node.end_lineno,
                        "class" if is_class else "function", top,
                        not is_class
                        and (_is_stub(node) or _is_abstract(node)),
                        tuple(_base_name(b) for b in node.bases)
                        if is_class else (),
                    ))
                    visit(node.body, qualname + ".", False)
                elif top and isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        if (isinstance(target, ast.Name)
                                and target.id != "__all__"
                                and path.name != "__init__.py"):
                            found.append(Definition(
                                module, target.id, rel, node.lineno,
                                node.end_lineno, "constant", True, False,
                            ))

        visit(tree.body, "", True)
    return found


def _names_in(path: Path) -> List[Tuple[str, int]]:
    """``(identifier, line)`` for every name the file reads or imports.

    Assignment targets (``self.depth = ...``) are not reads. In an
    ``__init__.py`` re-exports and ``__all__`` do not count.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    is_init = path.name == "__init__.py"
    names: List[Tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append((node.id, node.lineno))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not is_init:
            for alias in node.names:
                names.append((alias.name.rsplit(".", 1)[-1], node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.append((str(node.args[1].value), node.lineno))
    return names


def _python_files(root: Path, dirs: Sequence[str]) -> Iterable[Path]:
    """The ``.py`` files under each of ``dirs``; a named file as is."""
    for name in dirs:
        base = root / name
        if base.is_file():
            yield base
        elif base.is_dir():
            yield from (p for p in sorted(base.rglob("*.py"))
                        if "__pycache__" not in p.parts)


def named_by(
    root: Path, dirs: Sequence[str], exclude: Sequence[str] = ()
) -> Dict[str, Set[Tuple[str, int]]]:
    """identifier -> ``{(path, line)}`` over the files under ``dirs``."""
    index: Dict[str, Set[Tuple[str, int]]] = {}
    for path in _python_files(root, dirs):
        rel = str(path.relative_to(root))
        if any(rel.startswith(prefix) for prefix in exclude):
            continue
        for name, line in _names_in(path):
            index.setdefault(name, set()).add((rel, line))
    return index


def kept(name: str, keep: Dict[str, str]) -> Optional[str]:
    """The keep reason covering ``name``, if any."""
    for key, reason in keep.items():
        if name == key or name.startswith(key + "."):
            return reason
    return None


def static_offenders(
    root: Path = ROOT,
    src: Path = SRC,
    keep: Dict[str, str] = KEEP,
) -> List[Definition]:
    """Top-level definitions nothing outside the tests names."""
    index = named_by(root, READER_DIRS, exclude=TEST_DIRS)
    offenders = []
    for definition in definitions(src, root):
        if not definition.top_level or definition.qualname.startswith("__"):
            continue
        own = range(definition.first_line, definition.last_line + 1)
        readers_of = {
            (path, line)
            for path, line in index.get(definition.qualname, ())
            if not (path == definition.path and line in own)
        }
        if not readers_of and kept(definition.name, keep) is None:
            offenders.append(definition)
    return offenders


# ----------------------------------------------------------------------
# Flags
# ----------------------------------------------------------------------

def parser_flags(
    parser: argparse.ArgumentParser, command: str = ""
) -> List[Tuple[str, str]]:
    """``(subcommand, flag)`` for every optional argument of ``parser``.

    The subcommand is the space-joined path (``"snapshot publish"``,
    ``""`` at the top level); the flag is its longest option string.
    """
    pairs: List[Tuple[str, str]] = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                pairs += parser_flags(sub, f"{command} {name}".strip())
        elif action.option_strings and not isinstance(
            action, argparse._HelpAction
        ):
            pairs.append((command, max(action.option_strings, key=len)))
    return pairs


def _split(text: str) -> Set[str]:
    """The words of ``text``; ``--flag=value`` yields ``--flag``."""
    return set(re.split(r"[\s\"'=,()\[\]]+", text))


def _literal_words(node: ast.AST) -> Set[str]:
    """The words of one Python command literal's own strings.

    A list, tuple or set's elements, a call's arguments, or both sides
    of a ``+`` (``["run", p] + ["--fast"]`` is one command); a literal
    nested anywhere else is a command of its own.
    """
    if isinstance(node, ast.BinOp):
        parts = [node.left, node.right]
    elif isinstance(node, ast.Call):
        parts = node.args + [keyword.value for keyword in node.keywords]
    else:
        parts = node.elts
    words: Set[str] = set()
    for part in parts:
        if isinstance(part, ast.Starred):
            part = part.value
        if isinstance(node, ast.BinOp) and isinstance(
            part, (ast.BinOp, ast.List, ast.Tuple)
        ):
            words |= _literal_words(part)
        elif isinstance(part, (ast.Constant, ast.JoinedStr)):
            words |= set().union(*(
                _split(c.value) for c in ast.walk(part)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            ))
    return words


def _commands(path: Path) -> List[Set[str]]:
    """The word set of each command line a file can spell.

    In Python, each list, tuple, set, call or ``+`` (see
    :func:`_literal_words`); elsewhere, each logical line, with ``\\``
    continuations and open brackets joined (a shell step, or Python
    inlined in the YAML).
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        return [
            _literal_words(node)
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, (ast.List, ast.Tuple, ast.Set, ast.Call,
                                 ast.BinOp))
        ]
    commands, lines, depth = [], [], 0
    for line in text.splitlines():
        lines.append(line)
        depth = max(0, depth + sum(map(line.count, "([{"))
                    - sum(map(line.count, ")]}")))
        if depth == 0 and not line.rstrip().endswith("\\"):
            commands.append(_split("\n".join(lines)))
            lines = []
    return commands + [_split("\n".join(lines))]


def flag_offenders(
    pairs: Sequence[Tuple[str, str]],
    root: Path = ROOT,
    keep: Dict[Tuple[str, str], str] = KEEP_FLAGS,
) -> List[Tuple[str, str]]:
    """Flag pairs no command line under :data:`FLAG_READERS` names
    (both the subcommand's words and the flag) and none kept."""
    commands = [
        words for path in _python_files(root, FLAG_READERS)
        for words in _commands(path)
    ]
    return [
        (command, flag) for command, flag in pairs
        if (command, flag) not in keep
        and not any(
            flag in words and set(command.split()) <= words
            for words in commands
        )
    ]


def repro_flags() -> List[Tuple[str, str]]:
    """:func:`parser_flags` of ``repro``'s own parser."""
    sys.path.insert(0, str(SRC))
    from repro.cli import build_parser

    return parser_flags(build_parser())


# ----------------------------------------------------------------------
# The call hook
# ----------------------------------------------------------------------

#: ``sitecustomize`` for every traced process. It records the code
#: object of each Python call and, on exit, writes the ones under
#: ``$CENSUS_SRC`` to a fresh file in ``$CENSUS_OUT``.
HOOK = '''\
import atexit
import json
import os
import sys
import threading

_OUT = os.environ.get("CENSUS_OUT")
_SRC = os.environ.get("CENSUS_SRC", "")
_seen = set()


def _profile(frame, event, arg, _add=_seen.add):
    if event == "call":
        _add(frame.f_code)


def _flush():
    rows = sorted({
        (code.co_filename, code.co_firstlineno, code.co_name)
        for code in list(_seen) if code.co_filename.startswith(_SRC)
    })
    name = f"{os.getpid()}-{os.urandom(4).hex()}.json"
    with open(os.path.join(_OUT, name), "w") as handle:
        json.dump(rows, handle)


def _after_fork(_):
    # A pool worker ends in os._exit: atexit is skipped, but the
    # worker's bootstrap runs multiprocessing's own finalizers.
    _seen.clear()
    multiprocessing.util.Finalize(None, _flush, exitpriority=100)


if _OUT:
    import multiprocessing.util

    multiprocessing.util.register_after_fork(_after_fork, _after_fork)
    atexit.register(_flush)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''


def traced_env(out_dir: Path, src: Path = SRC) -> Dict[str, str]:
    """Environment that loads the hook in this process's children."""
    hook_dir = out_dir / "hook"
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(src)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["CENSUS_OUT"] = str(out_dir)
    env["CENSUS_SRC"] = str(src.resolve())
    return env


def entered(out_dir: Path) -> Dict[Tuple[str, int], Set[int]]:
    """``(absolute path, first line) -> {pid}`` over every flushed file."""
    seen: Dict[Tuple[str, int], Set[int]] = {}
    for path in out_dir.glob("*.json"):
        pid = int(path.name.split("-", 1)[0])
        for filename, line, _name in json.loads(path.read_text()):
            seen.setdefault((filename, line), set()).add(pid)
    return seen


def unreached(
    defs: Sequence[Definition],
    seen: Dict[Tuple[str, int], Set[int]],
    root: Path,
) -> List[Definition]:
    """Functions no traced process entered, outermost first.

    Stubs and abstract methods are never entered by design; a function
    nested in an unreached one is covered by its parent's entry.
    """
    missed: List[Definition] = []
    for d in defs:
        if d.kind != "function" or d.stub:
            continue
        if (str((root / d.path).resolve()), d.first_line) in seen:
            continue
        if any(d.name.startswith(m.name + ".") for m in missed):
            continue
        missed.append(d)
    return missed


# ----------------------------------------------------------------------
# The product surface
# ----------------------------------------------------------------------

PY = sys.executable
REPRO = [PY, "-m", "repro"]
MODELS = ("ht", "arf", "slr", "gnb", "majority")
#: A few lines ``--max-poison-rate`` must quarantine.
HOSTILE = ['{"id": "bad-1"', '{"id": "bad-2", "text": 7}', "not json"]


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _http(port: int, method: str, path: str, body: Optional[dict]) -> None:
    payload = json.dumps(body).encode() if body is not None else b""
    request = (
        f"{method} {path} HTTP/1.1\r\nHost: census\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: close\r\n\r\n"
    ).encode() + payload
    with socket.create_connection(("127.0.0.1", port), 10) as conn:
        conn.sendall(request)
        while conn.recv(65536):
            pass


def _jsonl(port: int, requests: Sequence[dict]) -> None:
    with socket.create_connection(("127.0.0.1", port), 10) as conn:
        reader = conn.makefile("rb")
        for request in requests:
            conn.sendall(json.dumps(request).encode() + b"\n")
            reader.readline()


def _serve(work: Path, env: Dict[str, str]) -> None:
    """``repro serve`` over HTTP and JSONL, stopped by SIGTERM."""
    port = _free_port()
    server = subprocess.Popen(
        REPRO + ["serve", str(work / "snaps"), "--port", str(port),
                 "--poll-interval", "0.05",
                 "--metrics-out", str(work / "serve-metrics.jsonl")],
        cwd=work, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120
        while True:
            try:
                _http(port, "GET", "/health", None)
                break
            except OSError:
                if time.monotonic() > deadline or server.poll() is not None:
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.2)
        tweet = {"text": "you are a stupid idiot", "user": {"followers": 3}}
        for path in ("/classify", "/explain"):
            _http(port, "POST", path, tweet)
        for path in ("/health", "/ready", "/metrics"):
            _http(port, "GET", path, None)
        _http(port, "POST", "/classify", {"text": 5})
        _http(port, "GET", "/nowhere", None)
        _jsonl(port, [
            {"op": "classify", "tweet": tweet},
            {"op": "explain", "tweet": tweet},
            {"op": "health"},
            {"op": "metrics"},
            {"op": "bogus"},
        ])
        # A hot swap while serving.
        subprocess.run(
            REPRO + ["snapshot", "publish", str(work / "snaps"),
                     "--from-checkpoint", str(work / "ckpt")],
            cwd=work, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        time.sleep(0.5)
        _http(port, "POST", "/classify", tweet)
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait(60)


def _run_commands() -> List[List[str]]:
    base = ["run", "data.jsonl", "--classes", "3"]
    mb = ["--engine", "microbatch", "--partitions", "2", "--batch-size",
          "400"]
    commands = [REPRO + ["generate", "data.jsonl", "--tweets", "1200",
                         "--seed", "5", "--user-pool", "200"]]
    for model in MODELS:
        commands.append(REPRO + base + ["--model", model])
        commands.append(REPRO + base + mb + ["--model", model,
                                             "--runner", "processes",
                                             "--workers", "2"])
    for norm in ("minmax", "zscore", "none"):
        commands.append(REPRO + base + ["--normalization", norm,
                                        "--no-adaptive-bow"])
        commands.append(REPRO + base + mb + ["--normalization", norm])
    commands += [
        REPRO + base + ["--report", "report.md",
                        "--metrics-out", "metrics.jsonl", "--console",
                        "--flight-recorder", "flight"],
        REPRO + base + mb + ["--runner", "serial", "--save-model",
                             "model.json", "--retries", "2"],
        REPRO + base + mb + ["--runner", "processes", "--workers", "2",
                             "--pipeline", "--checkpoint-dir", "ckpt-mb",
                             "--checkpoint-every", "1",
                             "--partition-deadline", "30"],
        REPRO + base + mb + ["--runner", "processes", "--workers", "2",
                             "--checkpoint-dir", "ckpt-mb", "--resume"],
        REPRO + base + ["--checkpoint-dir", "ckpt", "--checkpoint-every",
                        "1", "--publish-snapshot", "snaps"],
        REPRO + base + ["--checkpoint-dir", "ckpt", "--resume"],
        # --log-json: logging's callback JsonFormatter.format is
        # entered only when a run formats its log lines as JSON.
        REPRO + ["--log-json", "run", "hostile.jsonl",
                 "--max-poison-rate", "0.05"],
        REPRO + ["run", "hostile.jsonl", "--max-poison-rate", "0.05"]
        + mb + ["--runner", "processes", "--workers", "2"],
        REPRO + base + ["--queue-capacity", "200", "--arrival-rate",
                        "20000", "--burst-factor", "3",
                        "--batch-deadline", "0.001"],
        REPRO + base + mb + ["--batch-deadline", "0.001",
                             "--queue-capacity", "300",
                             "--shed-policy", "sample"],
        REPRO + ["classify", "model.json", "data.jsonl", "--classes", "3"],
        REPRO + ["simulate"],
        REPRO + ["simulate", "--measured-throughput", "3000"],
        REPRO + ["snapshot", "publish", "snaps-cli",
                 "--from-checkpoint", "ckpt"],
        REPRO + ["snapshot", "list", "snaps-cli"],
    ]
    return commands


def _surface_run(work: Path, env: Dict[str, str]) -> None:
    commands = _run_commands()
    _call(commands[0], work, env)
    lines = (work / "data.jsonl").read_text(encoding="utf-8").splitlines()
    (work / "hostile.jsonl").write_text(
        "\n".join(lines[:400] + HOSTILE + lines[400:800]) + "\n",
        encoding="utf-8",
    )
    for command in commands[1:]:
        _call(command, work, env)


def _surface_serve(work: Path, env: Dict[str, str]) -> None:
    if not (work / "ckpt").exists():
        _call(REPRO + ["generate", "data.jsonl", "--tweets", "600"], work, env)
        _call(REPRO + ["run", "data.jsonl", "--checkpoint-dir", "ckpt",
                       "--checkpoint-every", "1", "--publish-snapshot",
                       "snaps"], work, env)
    _serve(work, env)


def _surface_examples(work: Path, env: Dict[str, str]) -> None:
    for example in sorted((ROOT / "examples").glob("*.py")):
        _call([PY, str(example)], work, env)


def _surface_ledger(work: Path, env: Dict[str, str]) -> None:
    _call([PY, str(ROOT / "benchmarks" / "ledger" / "run.py"), "--smoke",
           "--out", str(work / "ledger.json")], work, env)


def _surface_bench(work: Path, env: Dict[str, str]) -> None:
    """Every paper-figure bench at 1 500 tweets, run once each.

    ``--benchmark-disable``: a measuring pytest-benchmark fixture
    switches the profile hook off around the code it times. At this
    size the benches write their tables under ``.bench_work``, never
    over the committed ones.
    """
    env = dict(env, REPRO_BENCH_TWEETS="1500")
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        _call([PY, "-m", "pytest", str(bench), "--benchmark-disable",
               "-q", "-p", "no:cacheprovider"], ROOT, env, check=False)


SURFACE: Tuple[Callable[[Path, Dict[str, str]], None], ...] = (
    _surface_run,
    _surface_serve,
    _surface_examples,
    _surface_ledger,
    _surface_bench,
)


def _call(
    argv: Sequence[str], cwd: Path, env: Dict[str, str], check: bool = True
) -> None:
    print("census:", " ".join(str(a) for a in argv[1:]), flush=True)
    done = subprocess.run(
        list(argv), cwd=cwd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if check and done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} exited {done.returncode}:\n"
            f"{done.stderr[-2000:]}"
        )


def run_surface(out_dir: Path) -> None:
    """Run the whole surface, traced, flushing into ``out_dir``."""
    env = traced_env(out_dir)
    work = out_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    for group in SURFACE:
        group(work, env)


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------

def _lineage(
    owner: Definition, by_name: Dict[str, List[Definition]]
) -> Set[str]:
    """``owner``'s name and its ``src/`` ancestors' names (``by_name``:
    the classes under each leaf name)."""
    names: Set[str] = set()
    todo = [owner]
    while todo:
        c = todo.pop()
        leaf = c.qualname.rsplit(".", 1)[-1]
        if leaf not in names:
            names.add(leaf)
            todo.extend(k for base in c.bases for k in by_name.get(base, ()))
    return names


def _named_outside(
    d: Definition,
    index: Dict[str, Set[Tuple[str, int]]],
    owners: Set[str],
) -> bool:
    """Whether a line outside ``d``'s body names it.

    For a method (``owners`` = its class and that class's ancestors;
    empty for a function) only a line in the class's own file or in a
    file naming one of ``owners`` counts: a bare ``.close()`` elsewhere
    is some other class's.
    """
    own = range(d.first_line, d.last_line + 1)
    files = {d.path} | {
        path for owner in owners for path, _ in index.get(owner, ())
    }
    return any(
        not (path == d.path and line in own)
        and (not owners or path in files)
        for path, line in index.get(d.qualname.rsplit(".", 1)[-1], ())
    )


def classify(
    missed: Sequence[Definition],
    defs: Sequence[Definition],
    product: Dict[str, Set[Tuple[str, int]]],
    keep: Dict[str, str] = KEEP,
) -> Dict[str, List[Definition]]:
    """Sort unreached functions (``missed``, out of ``defs``) into what
    to delete and what stays.

    * ``kept``: in :data:`KEEP`, with its reason;
    * ``protocol``: a dunder method, which the language calls;
    * ``rare path``: product code names it (an error, recovery or
      shutdown branch the healthy surface never takes) -- a method only
      where the naming file also names its class or a base;
    * ``only tests``: nothing outside the tests names it -- delete it
      or keep it with a reason.
    """
    groups: Dict[str, List[Definition]] = {
        "only tests": [], "kept": [], "protocol": [], "rare path": [],
    }
    classes = [d for d in defs if d.kind == "class"]
    owner_of = {c.name: c for c in classes}
    by_name: Dict[str, List[Definition]] = {}
    for c in classes:
        by_name.setdefault(c.qualname.rsplit(".", 1)[-1], []).append(c)
    for d in missed:
        leaf = d.qualname.rsplit(".", 1)[-1]
        owner = owner_of.get(d.name.rsplit(".", 1)[0])
        owners = _lineage(owner, by_name) if owner else set()
        if kept(d.name, keep) is not None:
            group = "kept"
        elif leaf.startswith("__") and leaf.endswith("__"):
            group = "protocol"
        elif _named_outside(d, product, owners):
            group = "rare path"
        else:
            group = "only tests"
        groups[group].append(d)
    return groups


def report(groups: Dict[str, List[Definition]]) -> str:
    lines = []
    for group, rows in groups.items():
        lines.append(f"## {group}: {len(rows)} functions, "
                     f"{sum(d.n_lines for d in rows)} lines")
        for d in rows:
            reason = kept(d.name, KEEP) if group == "kept" else None
            lines.append(
                f"{d.path}:{d.first_line} {d.qualname} ({d.n_lines} lines)"
                + (f" -- {reason}" if reason else "")
            )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="static gate: fail on a top-level definition "
                        "only tests name, or a CLI flag nothing sets")
    args = parser.parse_args(argv)

    if args.check:
        offenders = static_offenders()
        for d in offenders:
            print(f"{d.path}:{d.first_line}: {d.qualname} ({d.kind}, "
                  f"{d.n_lines} lines) is named only by tests; delete it "
                  "or add it to KEEP in tools/census.py with a reason")
        flags = flag_offenders(repro_flags())
        for command, flag in flags:
            print(f"repro {command} {flag}: no test, bench, example or CI "
                  "step sets it; check its effect, delete it, or add it "
                  "to KEEP_FLAGS in tools/census.py with a reason")
        return 1 if offenders or flags else 0

    defs = definitions(SRC, ROOT)
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        out_dir = Path(scratch).resolve()
        run_surface(out_dir)
        missed = unreached(defs, entered(out_dir), ROOT)
    product = named_by(ROOT, READER_DIRS, exclude=TEST_DIRS)
    print(report(classify(missed, defs, product)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

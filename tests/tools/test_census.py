"""The reachability census lists what only tests reach, and nothing else.

Both views run on a throwaway package: the static gate on who names a
definition, the dynamic census on what a traced program enters --
including a function entered only inside a ``ProcessPoolRunner``
worker, which leaves through ``os._exit`` without running ``atexit``.
The flag gate runs on a throwaway parser.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "census", ROOT / "tools" / "census.py"
)
census = importlib.util.module_from_spec(_spec)
sys.modules["census"] = census
_spec.loader.exec_module(census)

MODULE = '''
def used_by_tool():
    return 1


def only_test():
    return 2


def in_driver():
    return 3


def in_worker(x):
    return x * x


class Named:
    def method(self):
        return self


class Unrelated:
    def method(self):
        return 0
'''

DRIVER = '''
import functools

import pkg.mod
from repro.engine.runners import ProcessPoolRunner

if __name__ == "__main__":
    pkg.mod.used_by_tool()
    pkg.mod.in_driver()
    pkg.mod.Unrelated().method()
    with ProcessPoolRunner(n_processes=1) as runner:
        assert runner.run([functools.partial(pkg.mod.in_worker, 3)]) == [9]
'''

TEST = '''
from pkg.mod import Named, only_test


def test_it():
    assert only_test() == 2 and Named().method()
'''


def _tree(tmp_path: Path) -> Path:
    for rel, text in {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": MODULE,
        "tools/drive.py": DRIVER,
        "tests/test_pkg.py": TEST,
    }.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return tmp_path


def test_static_gate_lists_what_only_tests_name(tmp_path):
    root = _tree(tmp_path)
    offenders = census.static_offenders(root, root / "src", keep={})
    names = {d.qualname for d in offenders}
    # ``in_worker``/``in_driver``/``used_by_tool``/``Unrelated`` are
    # named by the tool, ``Named`` and ``only_test`` only by the test.
    assert names == {"Named", "only_test"}
    kept = census.static_offenders(
        root, root / "src", keep={"pkg.mod.Named": "a reason"}
    )
    assert {d.qualname for d in kept} == {"only_test"}


def test_dynamic_census_counts_worker_only_code_as_reached(tmp_path):
    root = _tree(tmp_path)
    src = root / "src"
    out = root / "traces"
    out.mkdir()
    env = census.traced_env(out, src)
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "src")
    driver = subprocess.Popen(
        [sys.executable, str(root / "tools" / "drive.py")], cwd=root, env=env
    )
    assert driver.wait(timeout=120) == 0

    seen = census.entered(out)
    defs = census.definitions(src, root)
    missed = {d.qualname for d in census.unreached(defs, seen, root)}
    assert missed == {"only_test", "Named.method"}

    (worker_def,) = [d for d in defs if d.qualname == "in_worker"]
    key = (str((root / worker_def.path).resolve()), worker_def.first_line)
    # Entered in the worker only: its trace came from another process.
    assert seen[key] and driver.pid not in seen[key]

    product = census.named_by(root, ("src", "tools"), exclude=("tests",))
    unreached = [d for d in defs if d.qualname in missed]
    groups = census.classify(unreached, defs, product, keep={})
    # The tool calls ``.method()`` on ``Unrelated``, a name it spells;
    # it never names ``Named``, so ``Named.method`` is no rare path.
    assert {d.qualname for d in groups["only tests"]} == missed


def test_a_method_is_a_rare_path_where_its_class_or_a_base_is_named(
    tmp_path,
):
    root = tmp_path
    for rel, text in {
        "src/pkg/__init__.py": "",
        "src/pkg/mod.py": MODULE,
        "src/pkg/sub.py": (
            "from pkg.mod import Named\n\n\nclass Child(Named):\n"
            "    def method(self):\n        return 1\n"
        ),
        "tools/use.py": (
            "from pkg.mod import Named\n\n\ndef f(x):\n"
            "    return x.method()\n"
        ),
    }.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    defs = census.definitions(root / "src", root)
    missed = [d for d in defs if d.qualname.endswith(".method")]
    groups = census.classify(
        missed, defs, census.named_by(root, ("src", "tools")), keep={}
    )
    # ``use.py`` names ``Named``: its ``.method()`` may be either
    # ``Named``'s or the subclass's; ``Unrelated`` it never names.
    assert {d.name for d in groups["rare path"]} == {
        "pkg.mod.Named.method", "pkg.sub.Child.method",
    }
    assert {d.name for d in groups["only tests"]} == {
        "pkg.mod.Unrelated.method"
    }


def _parser():
    parser = argparse.ArgumentParser(prog="tool")
    parser.add_argument("--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command")
    run = commands.add_parser("run")
    run.add_argument("input")
    run.add_argument("--fast", action="store_true")
    run.add_argument("-n", "--count", type=int)
    store = commands.add_parser("store").add_subparsers(dest="sub")
    push = store.add_parser("push")
    push.add_argument("--force", action="store_true")
    push.add_argument("--count", type=int)
    return parser


def test_parser_flags_key_each_flag_by_its_subcommand():
    assert census.parser_flags(_parser()) == [
        ("", "--verbose"),
        ("run", "--fast"),
        ("run", "--count"),
        ("store push", "--force"),
        ("store push", "--count"),
    ]


def test_flag_gate_fails_on_a_flag_no_check_sets(tmp_path):
    for rel, text in {
        # One command: a list, or lists joined by ``+``.
        "tests/test_run.py": (
            'main(["run", "x"] + ["--count=3"])\n'
            'main(["store", "push"])\n'
        ),
        # The subcommand and the flag in different commands of one
        # file (and of one table): no check of ``run --fast``.
        "tests/test_table.py": (
            '@parametrize("argv", [["run", "x"], ["--fast"]])\n'
            "def test(argv):\n    main(argv)\n"
        ),
        # A comment or a variable name sets nothing.
        "benchmarks/bench.py": "# run --fast\nfast = 1\n",
        # A shell line goes on past a trailing backslash, not further.
        ".github/workflows/ci.yml": (
            "run: |\n  tool store push \\\n    --force\n"
            "  tool store push\n  echo --count\n"
        ),
        "docs/usage.md": "tool run --fast --verbose\n",
    }.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    pairs = census.parser_flags(_parser())
    # ``store push --count``: ``--count`` is named with ``run`` only.
    assert census.flag_offenders(pairs, tmp_path, keep={}) == [
        ("", "--verbose"), ("run", "--fast"), ("store push", "--count"),
    ]
    kept = {("", "--verbose"): "a reason"}
    assert census.flag_offenders(pairs, tmp_path, keep=kept) == [
        ("run", "--fast"), ("store push", "--count"),
    ]


def test_every_kept_flag_is_a_real_flag_with_a_reason():
    pairs = set(census.repro_flags())
    for pair, reason in census.KEEP_FLAGS.items():
        assert pair in pairs and reason.strip()
    assert census.flag_offenders(sorted(pairs)) == []

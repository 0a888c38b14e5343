"""The reachability census lists what only tests reach, and nothing else.

Both views run on a throwaway package: the static gate on who names a
definition, the dynamic census on what a traced program enters --
including a function entered only inside a ``ProcessPoolRunner``
worker, which leaves through ``os._exit`` without running ``atexit``.
"""

from __future__ import annotations

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
'''

DRIVER = '''
import functools

import pkg.mod
from repro.engine.runners import ProcessPoolRunner

if __name__ == "__main__":
    pkg.mod.used_by_tool()
    pkg.mod.in_driver()
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
    # ``in_worker``/``in_driver``/``used_by_tool`` are named by the tool,
    # ``Named`` and ``only_test`` only by the test.
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

    groups = census.classify(
        [d for d in defs if d.qualname in missed],
        census.named_by(root, ("src", "tools"), exclude=("tests",)),
        keep={},
    )
    assert {d.qualname for d in groups["only tests"]} == missed

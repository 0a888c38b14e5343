"""A SIGKILLed driver takes its pool workers and segments with it.

``finally`` blocks and the ``atexit`` segment sweep never run on
SIGKILL (the OOM killer, a container stop, ``kill -9``). What is left
to clean up is the workers' job: each pool worker watches its parent
and exits once the driver is gone, and the resource tracker, whose
pipe the workers also hold, then unlinks the driver's segments.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.data.loader import write_jsonl
from repro.data.synthetic import AbusiveDatasetGenerator

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


def _shm_segments():
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("psm_*")} if shm.exists() else set()


def _alive(pid):
    """True unless ``pid`` is gone or a zombie nobody reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid):
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


def _is_tracker(pid):
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return b"resource_tracker" in cmdline


def _wait_for(predicate, timeout_s):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def test_sigkilled_driver_leaves_no_worker_and_no_segment(tmp_path):
    data = tmp_path / "data.jsonl"
    write_jsonl(
        AbusiveDatasetGenerator(n_tweets=20_000, seed=13).generate(), data
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    before = _shm_segments()
    driver = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", str(data),
         "--engine", "microbatch", "--runner", "processes",
         "--workers", "2", "--batch-size", "500"],
        env=env, cwd=tmp_path, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children = []
    try:
        # Two workers plus the resource tracker, and a batch in flight.
        def forked():
            children[:] = _children(driver.pid)
            return len(children) >= 3 and bool(_shm_segments() - before)

        assert _wait_for(forked, 60.0), "driver never forked its pool"
        assert driver.poll() is None, "driver finished before the kill"
        driver.send_signal(signal.SIGKILL)
        driver.wait(timeout=10)
        gone = _wait_for(
            lambda: not any(_alive(pid) for pid in children)
            and not _shm_segments() - before,
            5.0,
        )
        survivors = [pid for pid in children if _alive(pid)]
        leaked = sorted(_shm_segments() - before)
        assert gone, f"left alive: {survivors}, leaked segments: {leaked}"
    finally:
        if driver.poll() is None:
            driver.kill()
            driver.wait()
        # Workers first: the tracker unlinks the segments once the
        # last holder of its pipe is gone.
        for pid in sorted(children, key=_is_tracker):
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
                _wait_for(lambda: not _alive(pid), 2.0)


def _initialised_worker(driver):
    from repro.engine.runners import _worker_init

    _worker_init(driver)
    time.sleep(30)


def test_worker_whose_driver_died_before_its_initializer_exits():
    """The initializer compares the parent with the pid the driver
    recorded before the fork: a worker whose driver is already gone
    when it starts (here, a pid that is not its parent) leaves at
    once instead of adopting its new parent as the driver."""
    import multiprocessing

    worker = multiprocessing.get_context("fork").Process(
        target=_initialised_worker, args=(os.getpid() + 1_000_000,)
    )
    worker.start()
    worker.join(timeout=5.0)
    try:
        assert worker.exitcode == 1
    finally:
        if worker.exitcode is None:
            worker.kill()
            worker.join()

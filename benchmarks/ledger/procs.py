"""Leak-proof process control for the ledger orchestrator.

Every child the orchestrator starts becomes the leader of a fresh
session (``start_new_session=True``); whatever that child spawns — the
``repro serve`` server, process-pool workers, the ``multiprocessing``
resource tracker — inherits the session id. When the child returns,
times out, or the orchestrator itself is told to stop, the guard
signals every process in that session (SIGTERM, then SIGKILL), reaps
the orphans it inherits as a child subreaper, polls ``/proc`` until no
process carries the session id, and diffs ``/dev/shm`` against the
listing taken before anything ran.

This module must stay free of ``multiprocessing`` and ``repro``
imports: it has to be able to clean up after them.
"""

from __future__ import annotations

import atexit
import ctypes
import os
import signal
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36

SHM_DIR = "/dev/shm"

#: The resource tracker ignores SIGTERM and unlinks leaked segments
#: once its pipe closes, so survivors get this long between the two
#: signals to finish on their own.
TERM_GRACE_S = 3.0
KILL_GRACE_S = 5.0


def _prctl(option: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def die_with_parent(sig: int = signal.SIGKILL) -> None:
    """``preexec_fn``: deliver ``sig`` to this process when its parent
    dies (best effort — Linux only)."""
    _prctl(_PR_SET_PDEATHSIG, int(sig))


def session_pids(sid: int) -> List[int]:
    """Pids of every process (zombies included) in session ``sid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # comm may contain spaces and parentheses; fields resume after
        # the last ')': state ppid pgrp session ...
        fields = stat[stat.rfind(b")") + 2:].split()
        if len(fields) > 3 and int(fields[3]) == sid:
            found.append(int(entry))
    return found


def shm_listing() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _signal_all(pids: Sequence[int], sig: int) -> None:
    for pid in pids:
        try:
            os.kill(pid, sig)
        except (ProcessLookupError, PermissionError):
            pass


def _reap_orphans() -> None:
    """Collect every exited child (direct or adopted as subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


@dataclass
class ChildResult:
    returncode: Optional[int]
    stdout: str
    timed_out: bool


class ProcessGuard:
    """Runs children one session at a time and proves none survive."""

    def __init__(self) -> None:
        self.leaked_processes = 0
        self.leaked_shm_segments = 0
        self.n_children = 0
        self._live: Dict[int, subprocess.Popen] = {}
        self._shm_before = shm_listing()
        self._started_at = time.time()
        self._installed = False

    def install(self) -> None:
        """Become a subreaper and hook exit paths (call once, from the
        orchestrator's main thread)."""
        if self._installed:
            return
        self._installed = True
        _prctl(_PR_SET_CHILD_SUBREAPER, 1)
        atexit.register(self.cleanup)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, self._on_signal)

    def _on_signal(self, signum: int, _frame: object) -> None:
        # SystemExit unwinds through run()'s finally, which ends the
        # live session; atexit is the backstop.
        raise SystemExit(128 + signum)

    def run(
        self,
        argv: Sequence[str],
        timeout_s: float,
        env: Optional[Dict[str, str]] = None,
        cwd: Optional[str] = None,
    ) -> ChildResult:
        """Run one child in its own session; returns after the whole
        session is gone. stderr passes through to ours."""
        proc = subprocess.Popen(
            list(argv),
            stdout=subprocess.PIPE,
            start_new_session=True,
            preexec_fn=die_with_parent,
            env=env,
            cwd=cwd,
            text=True,
        )
        self._live[proc.pid] = proc
        self.n_children += 1
        timed_out = False
        stdout = ""
        try:
            try:
                stdout, _ = proc.communicate(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                timed_out = True
        finally:
            self._end_session(proc)
            if timed_out:
                # The pipe's writers are all dead now; drain what the
                # child managed to print.
                try:
                    stdout, _ = proc.communicate(timeout=5.0)
                except (subprocess.TimeoutExpired, ValueError):
                    pass
        return ChildResult(proc.returncode, stdout or "", timed_out)

    def _end_session(self, proc: subprocess.Popen) -> None:
        """TERM → KILL everything in the child's session, then audit."""
        sid = proc.pid

        def alive() -> List[int]:
            if proc.poll() is None:
                return session_pids(sid)
            _reap_orphans()
            return session_pids(sid)

        survivors = alive()
        if survivors:
            _signal_all(survivors, signal.SIGTERM)
            survivors = self._wait_gone(alive, TERM_GRACE_S)
        if survivors:
            _signal_all(survivors, signal.SIGKILL)
            survivors = self._wait_gone(alive, KILL_GRACE_S)
        if proc.poll() is None:
            try:
                proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                pass
        self.leaked_processes += len(survivors)
        self._live.pop(sid, None)
        self._audit_shm()

    @staticmethod
    def _wait_gone(alive, grace_s: float) -> List[int]:
        deadline = time.monotonic() + grace_s
        while True:
            survivors = alive()
            if not survivors or time.monotonic() >= deadline:
                return survivors
            time.sleep(0.02)

    def _audit_shm(self) -> None:
        """Count segments that appeared since the guard was built, and
        unlink the ones that are provably of this run's making."""
        leaked = shm_listing() - self._shm_before
        self.leaked_shm_segments += len(leaked)
        self._shm_before |= leaked  # count each leak once
        uid = os.getuid()
        for name in leaked:
            path = os.path.join(SHM_DIR, name)
            try:
                info = os.stat(path)
                ours = (
                    name.startswith("psm_")
                    and info.st_uid == uid
                    and info.st_mtime >= self._started_at - 1.0
                )
                if ours:
                    os.unlink(path)
            except OSError:
                pass

    def cleanup(self) -> None:
        """End every session still registered (exit/signal backstop)."""
        for proc in list(self._live.values()):
            self._end_session(proc)

    def hygiene(self) -> Dict[str, int]:
        return {
            "leaked_processes": self.leaked_processes,
            "leaked_shm_segments": self.leaked_shm_segments,
            "children_run": self.n_children,
        }

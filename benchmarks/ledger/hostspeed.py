"""How fast is the host right now, relative to a fixed reference?

The sandbox this ledger runs in changes speed under the benchmark's
feet: the same 24 000-tweet sequential run took 4.3 s in one quarter of
an hour and 7 s in the next, with no steal time reported and nothing
else running in the guest (README, "Host noise"). No estimator applied
to wall-clock samples alone survives that, so every child interleaves
its measured work with short slices of a fixed pure-Python kernel —
regex tokenising, dict counting, float accumulation, tuple building:
the instruction mix of the program's own hot path — and reports how
long they took. ``speed()`` turns those into a factor (1.0 = the
reference host, 0.67 = a host that needs 1.5x as long), and the
orchestrator scales each time-like end-to-end metric to what it would
have read on the reference host.

Both sides of any comparison are scaled by the same constant, so its
absolute value only fixes what "reference" means: this box on a quiet
quarter of an hour.

Standard library only.
"""

from __future__ import annotations

import os
import re
import statistics
from time import perf_counter
from typing import List, Sequence

#: Seconds one ``slice_seconds()`` takes on the reference host.
REFERENCE_SLICE_S = 0.00336

_ROUNDS = 100
_TEXT = (
    "@someone you are such an IDIOT lol, can't believe u said that!!! "
    "#fail #smh http://t.co/abc123 honestly the WORST take i've seen "
    "all week... whatever, have a nice day :) "
) * 2
_TOKEN = re.compile(r"[A-Za-z']+|#\w+|@\w+|https?://\S+|[^\sA-Za-z]")


def _work() -> None:
    findall, text = _TOKEN.findall, _TEXT
    for _ in range(_ROUNDS):
        tokens = findall(text)
        counts: dict = {}
        for token in tokens:
            low = token.lower()
            counts[low] = counts.get(low, 0) + 1
        level = 0.0
        for position, token in enumerate(tokens):
            level = level * 0.999 + len(token) / (position + 1.0)
        tuple(float(v) + level for v in counts.values())


def slice_seconds() -> float:
    """Run one fixed slice of work; returns how long it took."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def slice_on(core: int) -> float:
    """One slice with the calling thread moved to ``core`` while it
    runs. The two virtual cores of this host change speed
    independently (README, "Host noise"), so work pinned to a core is
    judged by slices taken on that core."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        return slice_seconds()
    finally:
        os.sched_setaffinity(0, previous)


def slice_every_core() -> float:
    """Mean of one slice on each core this process may use: the yard
    stick for work that is spread over all of them."""
    cores = sorted(os.sched_getaffinity(0))
    return sum(slice_on(core) for core in cores) / len(cores)


def sample(n: int) -> List[float]:
    return [slice_seconds() for _ in range(n)]


def speed(slices: Sequence[float]) -> float:
    """Host speed relative to the reference (median slice: one slice
    that caught a scheduler stall must not move the estimate)."""
    return REFERENCE_SLICE_S / statistics.median(slices)


def bracketed(slices: Sequence[float]) -> List[float]:
    """Speeds of the stretches that lie between consecutive slices:
    each is judged by the slice before it and the slice after it."""
    return [
        REFERENCE_SLICE_S / ((before + after) / 2.0)
        for before, after in zip(slices, slices[1:])
    ]

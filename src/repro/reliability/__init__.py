"""Fault-tolerant stream supervision (retry, quarantine, checkpointing).

The paper's pipeline runs on Spark Streaming, whose value proposition
is surviving worker failures and resuming from checkpoints. This
package supplies the equivalent reliability layer for our engines:

* :mod:`repro.reliability.deadletter` — bounded poison-tweet
  quarantine (:class:`DeadLetterQueue`), ingest validation, a
  failure-rate :class:`CircuitBreaker`, and the :class:`StreamHealth`
  summary;
* :mod:`repro.reliability.supervisor` — :class:`RetryPolicy`
  (exponential backoff + seeded jitter) and :class:`StreamSupervisor`,
  which drives any engine over a stream with periodic atomic
  checkpoints and exact checkpoint-resume;
* :mod:`repro.reliability.faults` — deterministic fault injection
  (:class:`FaultInjector`, :func:`corrupting_stream`) so every
  guarantee above is provable by the chaos test suite;
* :mod:`repro.reliability.overload` — overload robustness: the
  bounded ingest queue with explicit load shedding
  (:class:`BoundedIngestQueue`) and the adaptive degradation
  controller (:class:`OverloadController`) that trades feature
  richness for bounded latency under firehose bursts.

Submodules are resolved lazily (PEP 562): :mod:`repro.core.pipeline`
imports the dead-letter layer while the supervisor imports the engines,
and lazy resolution keeps that diamond cycle-free.
"""

from __future__ import annotations

import importlib
from typing import List

_EXPORTS = {
    "CircuitBreaker": "repro.reliability.deadletter",
    "CircuitOpenError": "repro.reliability.deadletter",
    "DeadLetterQueue": "repro.reliability.deadletter",
    "DeadLetterRecord": "repro.reliability.deadletter",
    "PoisonTweetError": "repro.reliability.deadletter",
    "StreamHealth": "repro.reliability.deadletter",
    "validate_tweet": "repro.reliability.deadletter",
    "CORRUPTION_KINDS": "repro.reliability.faults",
    "FaultInjector": "repro.reliability.faults",
    "FaultInjectingRunner": "repro.reliability.faults",
    "corrupt_tweet": "repro.reliability.faults",
    "corrupting_stream": "repro.reliability.faults",
    "corruption_mask": "repro.reliability.faults",
    "BoundedIngestQueue": "repro.reliability.overload",
    "DegradeTier": "repro.reliability.overload",
    "OverloadController": "repro.reliability.overload",
    "QueueEntry": "repro.reliability.overload",
    "SHED_POLICIES": "repro.reliability.overload",
    "RetryPolicy": "repro.reliability.supervisor",
    "StreamSupervisor": "repro.reliability.supervisor",
    "SupervisedRun": "repro.reliability.supervisor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(importlib.import_module(module_name), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))

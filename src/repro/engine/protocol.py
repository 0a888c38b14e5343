"""The one engine contract the supervisor and the CLI drive.

The paper's Fig. 2 dataflow has one shape: receive a chunk of the
stream, do partition-local work, merge. The MOA-style sequential
engine is its one-partition case. :class:`Engine` states that shape as
a structural :class:`typing.Protocol`, so
:class:`~repro.engine.sequential.SequentialEngine` and
:class:`~repro.engine.microbatch.MicroBatchEngine` satisfy it without a
shared base class, and nothing outside ``repro.engine`` needs to know
which of the two it holds. State (de)serialization lives next to the
pipeline's, in :func:`repro.core.checkpoint.engine_to_dict` /
:func:`~repro.core.checkpoint.engine_from_dict`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import AggressionDetectionPipeline
    from repro.data.tweet import Tweet
    from repro.obs.metrics import MetricsRegistry
    from repro.reliability.deadletter import CircuitBreaker, DeadLetterQueue
    from repro.reliability.overload import OverloadController
    from repro.streamml.base import StreamClassifier


@runtime_checkable
class Engine(Protocol):
    """What a stream engine exposes to its driver.

    Attributes:
        kind: ``"sequential"`` or ``"microbatch"`` — the ``engine``
            metric label and the checkpoint's engine tag.
        batch_size: tweets per supervisor chunk when the caller does
            not choose one.
        pipeline: the detector state checkpoints save and restore.
        config, model, normalizer, bag_of_words: its parts a serving
            snapshot captures.
        breaker, dead_letters: the engine's own poison-tweet quarantine
            (``None`` when it has none).
        metrics: the registry the engine reports into.
        controller: the attached overload controller, if any; the
            engine reports each chunk to it and adopts its decisions.
    """

    kind: str
    batch_size: int
    pipeline: "AggressionDetectionPipeline"
    config: "PipelineConfig"
    model: "StreamClassifier"
    normalizer: Any
    bag_of_words: Any
    breaker: Optional["CircuitBreaker"]
    dead_letters: Optional["DeadLetterQueue"]
    metrics: "MetricsRegistry"
    controller: Optional["OverloadController"]

    def process_chunk(self, tweets: Sequence["Tweet"]) -> float:
        """Run one chunk of the stream; returns its elapsed seconds."""
        ...

    def apply(self, controller: "OverloadController") -> None:
        """Adopt the controller's decisions for the next chunk."""
        ...

    def describe(self) -> str:
        """One-line engine description for run reports."""
        ...

    def result(self) -> Any:
        """The cumulative outcome of every chunk so far."""
        ...

    def drain(self) -> object:
        """Settle any in-flight work so state is safe to snapshot."""
        ...

    def close(self) -> None:
        """Release pooled resources (idempotent)."""
        ...

"""Distributed stream-processing substrate (Spark Streaming analog).

The paper deploys its pipeline on Apache Spark Streaming: the tweet
stream is discretized into micro-batches, each micro-batch is an
RDD-like partitioned dataset transformed in parallel, training happens
as local-model updates merged into a global model, and the global model
is broadcast for the next micro-batch (Fig. 2). This subpackage
re-implements that execution model:

* :mod:`repro.engine.protocol` — :class:`Engine`, the contract both
  engines implement and the supervisor and CLI drive;
* :mod:`repro.engine.runners` — serial and process-pool partition
  executors;
* :mod:`repro.engine.microbatch` — the micro-batch engine wiring the
  Fig. 2 dataflow over the pipeline stages;
* :mod:`repro.engine.sequential` — MOA-like single-threaded execution;
* :mod:`repro.engine.cluster` — a calibrated cost model reproducing the
  scalability study (Figs. 15/16) for arbitrary node×core layouts.
"""

from repro.engine.cluster import ClusterSpec, CostModel, SimulatedCluster
from repro.engine.microbatch import (
    EngineResult,
    MicroBatchEngine,
    MicroBatchResult,
    StageTimings,
)
from repro.engine.protocol import Engine
from repro.engine.replay import (
    ChaosReport,
    model_state_digest,
    run_chaos_scenario,
)
from repro.engine.runners import (
    PartitionError,
    ProcessPoolRunner,
    SerialRunner,
    TransientWorkerError,
    is_transient_error,
    make_runner,
)
from repro.engine.sequential import SequentialEngine

__all__ = [
    "ClusterSpec",
    "CostModel",
    "SimulatedCluster",
    "Engine",
    "EngineResult",
    "MicroBatchEngine",
    "MicroBatchResult",
    "StageTimings",
    "ChaosReport",
    "model_state_digest",
    "run_chaos_scenario",
    "PartitionError",
    "ProcessPoolRunner",
    "SerialRunner",
    "TransientWorkerError",
    "is_transient_error",
    "make_runner",
    "SequentialEngine",
]

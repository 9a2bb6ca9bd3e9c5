"""BT-Implementer runtime (paper section 3.4).

Two interchangeable back-ends execute pipeline schedules:

* :class:`ThreadedPipelineExecutor` - real dispatcher threads, SPSC
  queues, and compute kernels; validates functional correctness.
* :class:`SimulatedPipelineExecutor` - rate-based discrete-event
  simulation on the virtual SoC; produces all performance measurements,
  with interference emerging from the instantaneous co-run state.

Shared infrastructure: unified-memory buffers (:class:`UsmBuffer`),
recyclable :class:`TaskObject` containers, and the :class:`SpscQueue`
dispatchers communicate through.  A deterministic fault-injection layer
(:mod:`repro.runtime.faults`) exercises the recovery machinery: the
threaded back-end injects transient kernel faults (retry with backoff,
per-task quarantine) and both back-ends check PU dropouts; the
planner's :class:`~repro.core.adaptive.AdaptivePipeline` adds PU-dropout
fallback on top.  The opt-in concurrency checker
(:mod:`repro.runtime.checks`, :mod:`repro.runtime.lock_order`) lives
next to the queues, buffers and locks it guards.

The runtime executes schedules and imports nothing from the planner
(:mod:`repro.core`): it sees only the stage model (:mod:`repro.stage`),
the virtual SoC and the observability spine.
"""

from repro.runtime.faults import (
    FAILURE_FATAL,
    FAILURE_TRANSIENT,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultReport,
    KernelFaultSpec,
    PuDropoutSpec,
    RetryPolicy,
    TaskFailure,
    classify_failure,
)
from repro.runtime.memory import MemoryReport, estimate_pipeline_memory
from repro.runtime.pipeline import ThreadedPipelineExecutor, ThreadedRunResult
from repro.runtime.simulator import (
    SimBatchOutcome,
    SimWindow,
    SimulatedPipelineExecutor,
    SimulatedRunResult,
    simulate_batch,
)
from repro.runtime.spsc import SpscQueue
from repro.runtime.task_object import TaskObject
from repro.runtime.usm import UsmBuffer

__all__ = [
    "FAILURE_FATAL",
    "FAILURE_TRANSIENT",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultReport",
    "KernelFaultSpec",
    "MemoryReport",
    "PuDropoutSpec",
    "RetryPolicy",
    "SimBatchOutcome",
    "SimWindow",
    "SimulatedPipelineExecutor",
    "SimulatedRunResult",
    "SpscQueue",
    "TaskFailure",
    "TaskObject",
    "ThreadedPipelineExecutor",
    "ThreadedRunResult",
    "UsmBuffer",
    "classify_failure",
    "estimate_pipeline_memory",
    "simulate_batch",
]

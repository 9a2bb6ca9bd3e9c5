"""Deterministic fault injection and recovery machinery (extension).

The paper's BT-Implementer (section 3.4) assumes kernels never fail.  A
production deployment cannot: kernels throw, and PUs drop out (thermal
shutdown, driver resets).  This module supplies exactly the faults
``python -m repro faultsim`` injects:

* a seedable, fully deterministic **fault plan**: transient kernel
  faults at (task, stage) coordinates, raised around real kernel
  dispatch by the threaded executor, and PU dropouts, checked by both
  back-ends (the discrete-event simulator checks nothing else and
  refuses a plan with kernel faults);
* the **recovery policies** the injected faults exercise: retry with
  exponential backoff for transient kernel faults, per-task quarantine
  so one poisoned task is reported instead of unwinding the pipeline,
  and (via :class:`~repro.core.adaptive.AdaptivePipeline`) fallback
  to the best cached candidate avoiding a permanently failed PU;
* a structured :class:`FaultReport` recording every injected fault,
  retry, recovery, quarantine and fallback, surfaced by
  ``python -m repro faultsim``.

Injected faults fire *before* the kernel touches the task's buffers, so
a retried dispatch reproduces the fault-free output bit for bit - the
property the recovery tests assert end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    PipelineError,
    PuFailureError,
    ReproError,
    TransientKernelFault,
)
from repro.runtime.lock_order import checked_lock

# Event kinds recorded in the fault log.
KERNEL_FAULT = "kernel-fault"
PU_DROPOUT = "pu-dropout"
RETRY = "retry"
RECOVERY = "recovery"
QUARANTINE = "quarantine"
FALLBACK = "fallback"
# Fleet-level fault kinds (repro.fleet.chaos extends this registry):
# whole-SoC failure domains rather than per-dispatch faults.
SOC_CRASH = "soc-crash"
SOC_REJOIN = "soc-rejoin"
GRAY_START = "gray-start"
GRAY_END = "gray-end"
DEGRADE_START = "degrade-start"
DEGRADE_END = "degrade-end"

#: TaskObject constant under which a quarantined task carries its failure.
_QUARANTINE_KEY = "fault_quarantine"

# Failure classes returned by :func:`classify_failure`.
FAILURE_TRANSIENT = "transient"
FAILURE_FATAL = "fatal"


def classify_failure(exc: BaseException) -> str:
    """Classify a dispatch failure for the recovery machinery.

    ``transient`` failures are worth retrying and, failing that,
    quarantining: injected kernel faults and anything raised by the
    kernels themselves (a flaky driver, a numerical blow-up in one
    task's data).  ``fatal`` failures are contract or configuration
    bugs - any other :class:`~repro.errors.ReproError` (bad chunk
    cover, closed queues) - where retrying the same
    dispatch can only fail the same way, so the pipeline must unwind
    and surface the error.
    """
    if isinstance(exc, TransientKernelFault):
        return FAILURE_TRANSIENT
    if isinstance(exc, ReproError):
        return FAILURE_FATAL
    return FAILURE_TRANSIENT


# ----------------------------------------------------------------------
# Fault specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelFaultSpec:
    """Raise from one stage's kernel dispatch.

    Attributes:
        task_id: Task the fault targets.
        stage_index: Global stage index (0-based over the application).
        fail_attempts: Consecutive dispatch attempts that fail before
            the kernel succeeds; above the retry budget, the task is
            quarantined (or the pipeline unwinds).
    """

    task_id: int
    stage_index: int
    fail_attempts: int = 1

    def __post_init__(self) -> None:
        if self.fail_attempts < 1:
            raise PipelineError("fail_attempts must be >= 1")


@dataclass(frozen=True)
class PuDropoutSpec:
    """A PU class dies permanently at task ``after_task``.

    Every dispatch on that PU for task ids >= ``after_task`` raises
    :class:`~repro.errors.PuFailureError`; recovery requires a schedule
    that avoids the PU entirely.
    """

    pu_class: str
    after_task: int = 0

    def __post_init__(self) -> None:
        if self.after_task < 0:
            raise PipelineError("after_task must be >= 0")


@dataclass
class FaultPlan:
    """The full set of faults one run will experience."""

    kernel_faults: List[KernelFaultSpec] = field(default_factory=list)
    dropouts: List[PuDropoutSpec] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.kernel_faults or self.dropouts)

    @property
    def n_faults(self) -> int:
        return len(self.kernel_faults) + len(self.dropouts)

    @classmethod
    def random(
        cls,
        seed: int,
        n_tasks: int,
        n_stages: int,
        kernel_fault_rate: float = 0.0,
        fail_attempts: int = 1,
    ) -> "FaultPlan":
        """Draw a deterministic plan: same seed, same faults, always.

        Each (task, stage) coordinate independently receives a transient
        kernel fault with probability ``kernel_fault_rate``.
        """
        if not 0.0 <= kernel_fault_rate <= 1.0:
            raise PipelineError("kernel_fault_rate must be in [0, 1]")
        if fail_attempts < 1:  # refused even when no fault is drawn
            raise PipelineError("fail_attempts must be >= 1")
        if n_tasks < 1:
            raise PipelineError("n_tasks must be >= 1")
        rng = np.random.default_rng(seed)
        plan = cls()
        for task_id, stage in itertools.product(range(n_tasks),
                                                range(n_stages)):
            if rng.random() < kernel_fault_rate:
                plan.kernel_faults.append(KernelFaultSpec(
                    task_id=task_id, stage_index=stage,
                    fail_attempts=fail_attempts,
                ))
            # Two draws per coordinate: the second is unused, and keeps
            # every seed's plan - and so faultsim's report - unchanged.
            rng.random()
        return plan


# ----------------------------------------------------------------------
# Recovery policy
# ----------------------------------------------------------------------
#: Sleep before the first retry, its growth per further retry, and
#: its ceiling.
BASE_BACKOFF_S = 1e-4
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_S = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """Retry transient kernel faults with exponential backoff.

    Attributes:
        max_attempts: Total dispatch attempts per stage (1 = no retry).
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PipelineError("max_attempts must be >= 1")

    def backoff_s(self, failures: int) -> Optional[float]:
        """Sleep before retrying after ``failures`` failed attempts, or
        ``None`` once the attempt budget is exhausted."""
        if failures >= self.max_attempts:
            return None
        return min(BASE_BACKOFF_S * BACKOFF_MULTIPLIER ** (failures - 1),
                   MAX_BACKOFF_S)


# ----------------------------------------------------------------------
# Event log and report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault or recovery action."""

    kind: str
    pu_class: str
    stage_index: int
    task_id: int
    attempt: int = 0
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the event."""
        return {
            "kind": self.kind, "pu_class": self.pu_class,
            "stage_index": self.stage_index, "task_id": self.task_id,
            "attempt": self.attempt, "detail": self.detail,
        }


@dataclass(frozen=True)
class TaskFailure:
    """A task quarantined after exhausting its recovery budget."""

    task_id: int
    chunk_index: int
    stage_index: int
    pu_class: str
    error: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the failure."""
        return {
            "task_id": self.task_id, "chunk_index": self.chunk_index,
            "stage_index": self.stage_index, "pu_class": self.pu_class,
            "error": self.error,
        }


@dataclass
class FaultReport:
    """Structured log of everything that went wrong and how it ended."""

    events: Tuple[FaultEvent, ...] = ()
    failures: Tuple[TaskFailure, ...] = ()

    def count(self, kind: str) -> int:
        """Number of logged events of the given kind."""
        return sum(1 for event in self.events if event.kind == kind)

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the full report."""
        return {
            "counts": self.counts,
            "events": [event.to_dict() for event in self.events],
            "failures": [failure.to_dict() for failure in self.failures],
        }

    def format(self) -> str:
        """Human-readable multi-line report."""
        lines = ["fault/recovery report:"]
        counts = self.counts
        if not counts and not self.failures:
            lines.append("  no faults injected, no recovery needed")
            return "\n".join(lines)
        for kind in (KERNEL_FAULT, PU_DROPOUT, RETRY, RECOVERY,
                     QUARANTINE, FALLBACK):
            if counts.get(kind):
                lines.append(f"  {kind:>12}: {counts[kind]}")
        for event in self.events:
            where = (f"task {event.task_id} stage {event.stage_index} "
                     f"on {event.pu_class}"
                     if event.task_id >= 0 else event.pu_class)
            suffix = f" ({event.detail})" if event.detail else ""
            lines.append(f"    [{event.kind}] {where}"
                         f" attempt {event.attempt}{suffix}")
        for failure in self.failures:
            lines.append(
                f"  quarantined task {failure.task_id}: stage "
                f"{failure.stage_index} on {failure.pu_class} - "
                f"{failure.error}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The injector both back-ends call into
# ----------------------------------------------------------------------
class FaultInjector:
    """Evaluates a :class:`FaultPlan` at dispatch points and logs events.

    Thread-safe: the threaded back-end calls in from every dispatcher.

    Threaded back-end hook: :meth:`before_kernel`, called immediately
    before each kernel dispatch attempt, raises
    :class:`TransientKernelFault` / :class:`PuFailureError` for planned
    faults.  Simulated back-end hook: :meth:`check_dropout`, called
    where a chunk server starts a task.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = checked_lock("fault-log.lock")
        self._events: List[FaultEvent] = []
        self._dead_pus: Set[str] = set()

    # -- logging -------------------------------------------------------
    def record(self, kind: str, pu_class: str, stage_index: int,
               task_id: int, attempt: int = 0, detail: str = "") -> None:
        """Append one event to the log (callable by recovery code too)."""
        with self._lock:
            self._events.append(FaultEvent(
                kind=kind, pu_class=pu_class, stage_index=stage_index,
                task_id=task_id, attempt=attempt, detail=detail,
            ))

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        with self._lock:
            return tuple(self._events)

    def report(
        self, failures: Sequence[TaskFailure] = (),
    ) -> FaultReport:
        """Snapshot the log as a structured report."""
        return FaultReport(events=self.events, failures=tuple(failures))

    # -- threaded back-end --------------------------------------------
    def before_kernel(self, pu_class: str, stage_index: int,
                      task_id: int, attempt: int = 0) -> None:
        """Fire planned faults for one dispatch attempt.

        Raises:
            PuFailureError: The PU dropped out (permanent).
            TransientKernelFault: A planned kernel fault for this
                attempt (retryable).
        """
        self.check_dropout(pu_class, stage_index, task_id)
        for spec in self.plan.kernel_faults:
            if (spec.task_id == task_id and spec.stage_index == stage_index
                    and attempt < spec.fail_attempts):
                self.record(KERNEL_FAULT, pu_class, stage_index, task_id,
                            attempt=attempt,
                            detail=f"transient x{spec.fail_attempts}")
                raise TransientKernelFault(
                    f"injected kernel fault: task {task_id} stage "
                    f"{stage_index} on {pu_class} (attempt {attempt})"
                )

    # -- both back-ends ------------------------------------------------
    def check_dropout(self, pu_class: str, stage_index: int,
                      task_id: int) -> None:
        """Raise :class:`PuFailureError` when ``pu_class`` has dropped
        out by ``task_id``; the first such check logs the dropout."""
        for spec in self.plan.dropouts:
            if spec.pu_class != pu_class or task_id < spec.after_task:
                continue
            with self._lock:
                first = pu_class not in self._dead_pus
                self._dead_pus.add(pu_class)
            if first:
                self.record(PU_DROPOUT, pu_class, stage_index, task_id,
                            detail=f"dead from task {spec.after_task}")
            raise PuFailureError(
                pu_class,
                f"PU class {pu_class!r} dropped out at task "
                f"{spec.after_task} (dispatching task {task_id})",
            )


# ----------------------------------------------------------------------
# Task quarantine helpers (used by the threaded executor)
# ----------------------------------------------------------------------
def quarantine_task(task, failure: TaskFailure) -> None:
    """Mark a TaskObject as poisoned; downstream chunks pass it through."""
    task.set_constant(_QUARANTINE_KEY, failure)


def task_failure(task) -> Optional[TaskFailure]:
    """The failure a quarantined task carries, or ``None`` if healthy."""
    return task.constants.get(_QUARANTINE_KEY)


def clear_quarantine(task) -> None:
    """Reset the marker when a TaskObject is recycled for a new task."""
    task.set_constant(_QUARANTINE_KEY, None)

"""Tenant specifications and lifecycle records for the serving layer.

A *tenant* is one streaming pipeline job admitted onto the shared
virtual SoC: an application, a priority, and a finite stream of
execution windows.  The registry entry (:class:`TenantRecord`) carries
everything the server's control loops need - the deployed schedule,
the PU partition, the cached candidate set, and the measured history
the drift detector watches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence

from repro.core.optimizer import ScheduleCandidate
from repro.core.plan_cache import CachedPlan
from repro.core.schedule import Schedule
from repro.core.stage import Application
from repro.errors import ServeError

# Lifecycle states.
PENDING = "pending"      # submitted, admission not yet evaluated
QUEUED = "queued"        # admission deferred (backpressure queue)
RUNNING = "running"      # admitted, executing windows
COMPLETED = "completed"  # all requested windows served
REJECTED = "rejected"    # admission refused the job
EVICTED = "evicted"      # preempted to relieve contention
FAILED = "failed"        # execution error (recorded, not raised)

TERMINAL_STATES = (COMPLETED, REJECTED, EVICTED, FAILED)


@dataclass(frozen=True)
class TenantSpec:
    """One pipeline job as submitted to the server.

    Attributes:
        name: Unique tenant/job id.
        application: The streaming pipeline to serve.
        priority: Higher values survive contention longer; the
            eviction fallback always removes the lowest priority.
        windows: Execution windows requested (finite jobs; a window is
            the drift-detection quantum, as in
            :class:`~repro.runtime.adaptive.AdaptivePipeline`).
        window_tasks: Tasks streamed per window.
        required_classes: PU classes the tenant insists on (e.g. a
            job that must have the GPU).  Admission only considers
            candidates covering them - and therefore refuses the job
            outright when another tenant already holds one.  A hard
            constraint: rescheduling keeps honouring it.
        preferred_classes: Soft placement bias: admission favours
            candidates covering these when any fit, but falls back
            freely - and the rescheduler may leave them to escape
            contention.
    """

    name: str
    application: Application
    priority: int = 0
    windows: int = 8
    window_tasks: int = 10
    required_classes: FrozenSet[str] = frozenset()
    preferred_classes: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("a tenant needs a non-empty name")
        if self.windows < 1:
            raise ServeError("windows must be >= 1")
        if self.window_tasks < 2:
            raise ServeError("window_tasks must be >= 2")
        object.__setattr__(
            self, "required_classes", frozenset(self.required_classes)
        )
        object.__setattr__(
            self, "preferred_classes", frozenset(self.preferred_classes)
        )


@dataclass
class WindowResult:
    """One served window's measurement."""

    window_index: int
    schedule: Schedule
    measured_latency_s: float
    external_busy_classes: List[str]
    rescheduled: bool = False
    regime: str = "isolated"  # closer to isolated or interference profile
    #: Interference blame decomposition of this window's slowdown
    #: (:class:`repro.obs.attribution.BlameMatrix`); only populated when
    #: the server runs with ``attribution=True``.
    blame: Optional[object] = None


@dataclass
class TenantRecord:
    """Registry entry: the server-side state of one tenant."""

    spec: TenantSpec
    status: str = PENDING
    plan: Optional[CachedPlan] = None
    schedule: Optional[Schedule] = None
    partition: FrozenSet[str] = frozenset()
    candidates: Sequence[ScheduleCandidate] = ()
    windows_done: int = 0
    history: List[WindowResult] = field(default_factory=list)
    reschedules: int = 0
    status_detail: str = ""
    admission_order: int = -1
    #: Latency of the first window after (re)deployment - the drift
    #: detector's reference point.
    baseline_latency_s: Optional[float] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES

    def per_item_latencies(self) -> List[float]:
        """Per-task latency samples: each window's steady per-task
        latency weighted by its task count (the p95 population)."""
        out: List[float] = []
        for window in self.history:
            out.extend(
                [window.measured_latency_s] * self.spec.window_tasks
            )
        return out

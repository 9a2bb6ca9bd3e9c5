"""Tenant specifications and lifecycle records for the serving layer.

A *tenant* is one streaming pipeline job admitted onto the shared
virtual SoC: an application, a priority, and a finite stream of
execution windows.  The registry entry (:class:`TenantRecord`) carries
everything the server's control loops need - the deployed schedule,
the PU partition, the cached candidate set, and the measured history
the drift detector watches.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.core.plan_cache import CachedPlan
from repro.core.schedule import Schedule
from repro.errors import ServeError
from repro.stage import Application

# Lifecycle states.
PENDING = "pending"      # submitted, admission not yet evaluated
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
            the drift-detection quantum).
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

    @functools.cached_property
    def pricing_key(self) -> tuple:
        """Everything of the spec that reaches admission: (application
        name - the plan cache's key - required classes, preferred
        classes).  Two tenants sharing it get the same verdict from the
        same placement."""
        return (self.application.name, self.required_classes,
                self.preferred_classes)


@dataclass(frozen=True, slots=True)
class WindowSample:
    """One served window: the row every report above the DES derives from.

    Written once, by :meth:`PipelineServer._finish_window`.  The
    tenant's ``history``, the fleet tenant's ``windows``, the router's
    ``window_log`` and a traffic run's ``samples`` all hold this same
    object; nothing above the server re-records a window.

    Attributes:
        tick: The tick the window was served on.
        tenant: Who served it.
        window_index: Its index within the tenant's residency on this
            server (a fleet placement starts again at 0).
        measured_latency_s: Steady per-task latency the DES measured.
        isolated_s: Isolated prediction of the schedule the window
            *ran on* - the contention-free reference.  Positive for any
            application that does work, so nothing guards the division.
        window_tasks: Tasks streamed in the window (the weight of the
            window in a per-task percentile population).
        regime: Closer to the isolated or the interference profile.
        blame: Interference blame decomposition of the slowdown
            (:class:`repro.obs.attribution.BlameMatrix`); only with
            ``FleetConfig.attribution``.
        shard: The serving shard.
    """

    tick: int
    tenant: str
    window_index: int
    measured_latency_s: float
    isolated_s: float
    window_tasks: int
    regime: str = "isolated"
    blame: Optional[object] = None
    shard: str = ""
    #: The latency as timelines and reports state it (9 decimals) -
    #: what the fleet and traffic layers have always consumed.  Rounded
    #: once, when the row is written, not at each of its many reads.
    latency_s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "latency_s",
                           round(self.measured_latency_s, 9))

    @property
    def slowdown(self) -> float:
        """Latency over the contention-free reference."""
        return self.latency_s / self.isolated_s

    def attains(self, slo: float) -> bool:
        """Whether the window met a slowdown SLO; the boundary counts
        as met ("p95 <= 1.5x" includes 1.5x itself)."""
        return self.slowdown <= slo


@dataclass
class TenantRecord:
    """Registry entry: the server-side state of one tenant."""

    spec: TenantSpec
    status: str = PENDING
    plan: Optional[CachedPlan] = None
    schedule: Optional[Schedule] = None
    partition: Tuple[str, ...] = ()
    #: Every window served, in order (the rows the server wrote).
    history: List[WindowSample] = field(default_factory=list)
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
    def windows_done(self) -> int:
        return len(self.history)

    @property
    def done(self) -> bool:
        return self.status in TERMINAL_STATES

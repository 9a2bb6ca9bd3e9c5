"""Shared plan cache: profiling tables + candidate sets for tenants.

Collecting a profiling table is the expensive step of the whole flow
(~6 minutes per device per application on real hardware, paper section
3.2), and the optimizer's K candidates are the reusable artifact that
makes cheap re-ranking possible (level 3, and the adaptive/serving
loops built on it).  A multi-tenant server admits many jobs of a few
application types onto one SoC; re-profiling per tenant would dwarf
the work being served.  :class:`PlanCache` builds each application's
artifacts once per platform and shares them across every tenant:

* both profiling tables - ``isolated`` and ``interference`` - because
  the admission controller and the drift detector need *both* ends of
  the contention spectrum to place a measurement between them;
* the optimizer's candidate set (from the interference-aware table,
  the paper's real flow), which the online rescheduler re-ranks when
  contention shifts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Tuple

from repro.core.optimizer import (
    DEFAULT_GAP_SLACK,
    BTOptimizer,
    OptimizationResult,
    ScheduleCandidate,
)
from repro.core.profiler import BTProfiler, ProfilingTable
from repro.core.schedule import Schedule
from repro.core.stage import Application
from repro.errors import SchedulingError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.soc.platform import Platform


def with_packing_candidates(
    optimization: OptimizationResult,
    application: Application,
    table: ProfilingTable,
    pu_classes: Iterable[str],
) -> OptimizationResult:
    """Append single-class *packing candidates* to an offline result.

    The optimizer's K candidates are latency-diverse but assume the
    whole SoC is theirs; a multi-tenant server also needs *narrow*
    schedules so several tenants can pack onto disjoint PU classes.
    Every single-class schedule is C2-trivial and zero-gapness, so it
    always exists; appended after the optimizer's picks (worse rank =
    only chosen when nothing wider fits or contention makes it win).
    """
    existing = {c.schedule.assignments for c in optimization.candidates}
    extended = list(optimization.candidates)
    singles = []
    for pu_class in sorted(set(pu_classes)):
        schedule = Schedule.homogeneous(application.num_stages, pu_class)
        if schedule.assignments in existing:
            continue
        singles.append(schedule)
    # Deterministic order: by predicted latency, then class name.
    singles.sort(key=lambda s: (s.predicted_latency(application, table),
                                s.assignments[0]))
    for schedule in singles:
        extended.append(
            ScheduleCandidate(
                rank=len(extended),
                schedule=schedule,
                predicted_latency_s=schedule.predicted_latency(
                    application, table
                ),
                gapness_s=schedule.gapness(application, table),
            )
        )
    return replace(optimization, candidates=extended)


@dataclass(frozen=True)
class CachedPlan:
    """One application's reusable planning artifacts on one platform.

    The plan is frozen and so are its tables, so a schedule's predicted
    latencies are facts of the plan: computed on first use - never at
    build time, so a plan nobody prices costs nothing extra - and
    looked up from then on.
    """

    application: Application
    isolated: ProfilingTable
    interference: ProfilingTable
    optimization: OptimizationResult
    #: assignments -> (isolated, interference, contention span).
    _predictions: Dict[Tuple[str, ...], Tuple[float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )

    def predictions(self, schedule: Schedule) -> Tuple[float, float, float]:
        """``(isolated, interference, contention span)`` of ``schedule``
        - the three accessors below in one lookup."""
        known = self._predictions.get(schedule.assignments)
        if known is None:
            isolated = schedule.predicted_latency(
                self.application, self.isolated
            )
            interference = schedule.predicted_latency(
                self.application, self.interference
            )
            span = (1.0 if isolated <= 0
                    else max(interference / isolated, 1.0))
            known = self._predictions[schedule.assignments] = (
                isolated, interference, span,
            )
        return known

    def isolated_prediction(self, schedule: Schedule) -> float:
        """Model latency with nothing else on the SoC."""
        return self.predictions(schedule)[0]

    def interference_prediction(self, schedule: Schedule) -> float:
        """Model latency with every other PU saturated (the paper's
        interference-heavy profiling condition)."""
        return self.predictions(schedule)[1]

    def contention_span(self, schedule: Schedule) -> float:
        """Predicted latency growth from idle to saturated co-runners
        (>= 1.0); the scale drift measurements are placed on."""
        return self.predictions(schedule)[2]


class PlanCache:
    """Per-platform cache of :class:`CachedPlan` keyed by application.

    Args:
        platform: The shared virtual SoC every tenant runs on.
        repetitions: Profiling repetitions per table entry.
        k: Optimizer candidate count (the rescheduler's search space).
        gap_slack: Utilization-threshold slack (level 1 filter).
        time_budget_s: Optional optimizer wall budget per application.
    """

    def __init__(
        self,
        platform: Platform,
        repetitions: int = 5,
        k: int = 8,
        gap_slack: float = DEFAULT_GAP_SLACK,
        time_budget_s: Optional[float] = None,
    ):
        if k < 1:
            raise SchedulingError("k must be >= 1")
        self.platform = platform
        self.profiler = BTProfiler(platform, repetitions=repetitions)
        self.k = k
        self.gap_slack = gap_slack
        self.time_budget_s = time_budget_s
        self._plans: Dict[str, CachedPlan] = {}
        self.hits = 0
        self.misses = 0

    def plan_for(self, application: Application) -> CachedPlan:
        """The application's cached plan, building it on first use.

        Applications are keyed by name: two tenants submitting the
        same application name share one profiling pass and one
        candidate set (the multi-tenant economics the cache exists
        for).
        """
        reg = metrics()
        cached = self._plans.get(application.name)
        if cached is not None:
            self.hits += 1
            if reg.enabled:
                reg.counter("plan_cache.hits")
            return cached
        self.misses += 1
        if reg.enabled:
            reg.counter("plan_cache.misses")
        # The build span parents the whole miss path, so a trace shows
        # exactly which tenant admission paid for profiling + solving.
        with tracer().span("plan_cache.build", "plan_cache",
                           application=application.name):
            isolated, interference = self.profiler.profile_both(
                application
            )
            schedulable = self.platform.schedulable_classes()
            optimizer = BTOptimizer(
                application,
                interference.restricted(schedulable),
                k=self.k,
                gap_slack=self.gap_slack,
                time_budget_s=self.time_budget_s,
            )
            plan = CachedPlan(
                application=application,
                isolated=isolated,
                interference=interference,
                optimization=with_packing_candidates(
                    optimizer.optimize(), application, interference,
                    schedulable,
                ),
            )
        self._plans[application.name] = plan
        return plan

    def stats(self) -> Dict[str, int]:
        """Cache effectiveness counters for the serving report."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._plans)}

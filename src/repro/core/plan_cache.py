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
  the contention spectrum to place a measurement between them - all a
  cold plan pays for; the rest is derived from them on first use:
* the single-class candidates, one column sum of the interference
  table each - all an admission capped at one PU class can grant;
* the optimizer's candidate set (from the interference-aware table,
  the paper's real flow), solved for its first reader: an uncapped
  admission, or the online rescheduler re-ranking when contention
  shifts.

The same economics hold *below* the plan.  BT-Implementer builds a
pipeline once per deployed schedule, and what a deployed schedule does
in a window is a fact of what was deployed - (platform, application,
schedule, co-load, window size) - not of who deployed it.  So the cache
also hands out one :class:`Deployment` per (application object,
schedule): the simulated pipeline, the load it offers its co-tenants,
and the window results it has produced, shared by every tenant, every
same-platform shard and a crashed shard's next generation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.optimizer import (
    BTOptimizer,
    OptimizationResult,
    ScheduleCandidate,
)
from repro.core.profiler import BTProfiler, ProfilingTable
from repro.core.schedule import Schedule
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.runtime.simulator import (
    SimulatedPipelineExecutor,
    SimulatedRunResult,
)
from repro.soc.interference import ExternalLoad
from repro.soc.platform import Platform
from repro.stage import Application

#: Profiling repetitions per table entry of every served plan.
PROFILING_REPETITIONS = 3

#: Optimizer candidates per served plan (the rescheduler's search space).
PLAN_K = 8

#: Deployments a :class:`PlanCache` keeps warm.  A live placement holds
#: its own reference, so the table only has to keep *idle* deployments
#: for whoever deploys the same (application, schedule) next.  Measured
#: key spaces (bench soaks, seed 7, unbounded table): 11 distinct
#: deployments on `fleet_steady` and 12 on `fleet_overload` (one cache
#: each, 4 387 / 3 005 served windows), 168 / 143 / 84 on the three
#: caches of `fleet_coldplan_chaos` (192-app pool), where an idle
#: deployment is next to never asked for again: the table re-builds 11 /
#: 12 / 438 deployments at 32 against 11 / 12 / 395 unbounded and
#: forgets 6 of 1 436 remembered windows, while every chaos plan pinning
#: its executors for good costs +9 % peak RSS.  At 8 the pixel7a fleets
#: start to thrash (43 and 159 builds).
_DEPLOYMENTS_KEPT = 32

#: Window results one :class:`Deployment` remembers, most recently
#: served last; a result is a few KiB (one traced window's spans).
#: Measured on the same soaks: at most 18 / 19 / 17 distinct (co-load
#: key, window tasks) per deployment, 117 / 172 / 873 in all - 3x
#: headroom, so no workload evicts.
_RESULTS_KEPT = 64


def single_class_candidates(
    application: Application, table: ProfilingTable,
    pu_classes: Iterable[str],
) -> List[ScheduleCandidate]:
    """One candidate per PU class with every stage on it, ordered by
    (predicted latency, class name) and ranked by that position.  A
    one-chunk schedule's latency is its class's column sum and its
    gapness 0 by definition, so the table alone prices it."""
    stages = application.stage_names
    priced = sorted(
        (sum(table.latency(stage, pu_class) for stage in stages), pu_class)
        for pu_class in set(pu_classes))
    return [
        ScheduleCandidate(
            rank=rank, schedule=Schedule.homogeneous(len(stages), pu_class),
            predicted_latency_s=latency, gapness_s=0.0)
        for rank, (latency, pu_class) in enumerate(priced)
    ]


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
    for single in single_class_candidates(application, table, pu_classes):
        if single.schedule.assignments not in existing:
            extended.append(replace(single, rank=len(extended)))
    return replace(optimization, candidates=extended)


def tenant_offered_load(
    application: Application,
    table: ProfilingTable,
    schedule: Schedule,
    platform: Platform,
) -> ExternalLoad:
    """The external load one running tenant presents to its co-tenants.

    Steady-state pipeline geometry: the bottleneck chunk is busy all
    the time, every other chunk ``T_chunk / T_max`` of the time (the
    complement is its gapness bubble).  Bandwidth: each chunk's
    time-weighted average of its stages' isolated DRAM demand, scaled
    by its busy fraction.
    """
    times = schedule.chunk_times(application, table)
    t_max = max(times.values())
    busy: Dict[str, float] = {}
    demand = 0.0
    for chunk, chunk_time in times.items():
        if t_max <= 0 or chunk_time <= 0:
            continue
        fraction = min(chunk_time / t_max, 1.0)
        busy[chunk.pu_class] = fraction
        weighted = sum(
            platform.bandwidth_demand(
                application.stages[i].work, chunk.pu_class
            ) * table.latency(application.stages[i].name, chunk.pu_class)
            for i in chunk.stage_indices
        )
        demand += (weighted / chunk_time) * fraction
    return ExternalLoad(busy=busy, demand_gbps=demand)


@dataclass(frozen=True)
class CachedPlan:
    """One application's reusable planning artifacts on one platform.

    The plan is frozen and so are its tables, so everything else is a
    fact of the plan: computed on first use - never at build time, so a
    plan nobody prices, or nobody re-ranks, costs nothing extra - and
    looked up from then on.
    """

    application: Application
    isolated: ProfilingTable
    interference: ProfilingTable
    #: The PU classes a schedule may use.
    schedulable: Tuple[str, ...]
    #: Levels 1 and 2 for this plan; the first read of ``optimization``.
    solve: Callable[["CachedPlan"], OptimizationResult]
    #: assignments -> (isolated, interference, contention span).
    _predictions: Dict[Tuple[str, ...], Tuple[float, float, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False,
    )

    @cached_property
    def singles(self) -> List[ScheduleCandidate]:
        """The single-class candidates, lowest predicted latency first,
        ranked by position in *this* list: the one-class members of
        :attr:`optimization` in the same order, without the solve."""
        return single_class_candidates(
            self.application, self.interference, self.schedulable
        )

    @cached_property
    def optimization(self) -> OptimizationResult:
        """BT-Optimizer's ranked candidates plus the packing candidates;
        a trace shows which pricing or re-rank paid for the solve."""
        with tracer().span("plan_cache.solve", "plan_cache",
                           application=self.application.name):
            return self.solve(self)

    def within(self, cap: Optional[int]) -> Sequence[ScheduleCandidate]:
        """The candidates using at most ``cap`` PU classes (None: all),
        best first; only ``singles`` meet a cap of one: it never solves."""
        if cap == 1:
            return self.singles
        return [c for c in self.optimization.candidates
                if cap is None or len(c.schedule.class_set) <= cap]

    def predictions(self, schedule: Schedule) -> Tuple[float, float, float]:
        """``(isolated, interference, contention span)`` of ``schedule``
        in one lookup; interference is the model latency with every
        other PU saturated (the paper's interference-heavy condition)."""
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

    def contention_span(self, schedule: Schedule) -> float:
        """Predicted latency growth from idle to saturated co-runners
        (>= 1.0); the scale drift measurements are placed on."""
        return self.predictions(schedule)[2]


@dataclass(eq=False)
class Deployment:
    """One schedule of one application deployed on one platform - what
    BT-Implementer builds once - and everything that follows from it
    alone, whoever runs on it.

    Attributes:
        executor: The simulated pipeline; tenant-free, so every tenant
            on this deployment streams its windows through it.
        offered: The load a tenant running it presents to its
            co-tenants (:func:`tenant_offered_load`).
    """

    executor: SimulatedPipelineExecutor
    offered: ExternalLoad
    #: (co-load key, window tasks) -> the traced result of that window,
    #: most recently served last.  Shared by reference: read-only.
    _results: "OrderedDict[tuple, SimulatedRunResult]" = field(
        default_factory=OrderedDict, init=False, repr=False,
    )

    def remembered(self, external: ExternalLoad,
                   n_tasks: int) -> Optional[SimulatedRunResult]:
        """The result of an ``n_tasks`` window under ``external`` if
        this deployment has served one (for any tenant), else None."""
        key = (external.key, n_tasks)
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
        return result

    def remember(self, external: ExternalLoad, n_tasks: int,
                 result: SimulatedRunResult) -> None:
        """Keep ``result`` as what an ``n_tasks`` window under
        ``external`` is on this deployment."""
        self._results[(external.key, n_tasks)] = result
        if len(self._results) > _RESULTS_KEPT:
            self._results.popitem(last=False)


class PlanCache:
    """Per-platform cache of :class:`CachedPlan` keyed by application,
    and of :class:`Deployment` keyed by (application, schedule).

    Args:
        platform: The shared virtual SoC every tenant runs on.

    Every table entry is profiled ``PROFILING_REPETITIONS`` times, and
    every plan's optimizer keeps ``PLAN_K`` candidates.
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self.profiler = BTProfiler(platform,
                                   repetitions=PROFILING_REPETITIONS)
        self._plans: Dict[str, CachedPlan] = {}
        #: (application object, assignments) -> deployment, most
        #: recently asked-for last.  The application is keyed by
        #: identity (plans are shared by *name*, but a pipeline runs its
        #: own application's work); the table holds the object, so its
        #: identity cannot be recycled.
        self._deployments: "OrderedDict[tuple, Deployment]" = OrderedDict()
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
        # The build span parents the profiler, so a trace shows exactly
        # which tenant admission paid for the tables.
        with tracer().span("plan_cache.build", "plan_cache",
                           application=application.name):
            isolated, interference = self.profiler.profile_both(
                application
            )
        plan = self._plans[application.name] = CachedPlan(
            application, isolated, interference,
            schedulable=self.platform.schedulable_classes(),
            solve=self._solve,
        )
        return plan

    def _solve(self, plan: CachedPlan) -> OptimizationResult:
        """``plan.optimization``: BT-Optimizer over the schedulable
        columns of the interference table, packing candidates after."""
        optimizer = BTOptimizer(
            plan.application,
            plan.interference.restricted(plan.schedulable), k=PLAN_K,
        )
        return with_packing_candidates(
            optimizer.optimize(), plan.application, plan.interference,
            plan.schedulable,
        )

    def deployment_for(self, application: Application,
                       schedule: Schedule) -> Deployment:
        """The one :class:`Deployment` of ``schedule`` for this very
        ``application`` object, built on first use.

        The offered load is priced on the application's cached plan
        (shared by name), so :meth:`plan_for` comes first.  Callers
        that keep serving on a deployment hold on to it: the table is
        bounded and only promises to keep recent ones warm.
        """
        key = (application, schedule.assignments)
        deployment = self._deployments.get(key)
        if deployment is not None:
            self._deployments.move_to_end(key)
            return deployment
        deployment = self._deployments[key] = Deployment(
            SimulatedPipelineExecutor(
                application, schedule.chunks(), self.platform,
            ),
            tenant_offered_load(
                application, self._plans[application.name].isolated,
                schedule, self.platform,
            ),
        )
        if len(self._deployments) > _DEPLOYMENTS_KEPT:
            self._deployments.popitem(last=False)
        return deployment

    def stats(self) -> Dict[str, int]:
        """Plans built, kept and looked up (reports omit ``hits``)."""
        return {"hits": self.hits, "misses": self.misses,
                "entries": len(self._plans)}

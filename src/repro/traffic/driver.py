"""The soak runner: the one loop that steps a fleet, tick by tick.

Every serving command is a preset of :class:`OpenLoopDriver`.  Each
tick it submits *every* arrival its source scheduled for that tick,
whether or not the fleet kept up, then steps the fleet once.  The
source sets the horizon: a fixed list of
:class:`~repro.serve.tenant.TenantSpec` (an empty source is one)
arrives at tick 0 and stops the run once the fleet drains; a stream of
:class:`~repro.traffic.generator.ArrivalEvent` - generated or replayed
from a :class:`~repro.traffic.trace.TrafficTrace`, one code path -
runs the full horizon and alone arms the per-tick traffic instruments.

A stream's served windows are read by *slowdown*: measured latency over
the isolated prediction of the schedule the window ran on, which
isolates what admission governs - contention - from placement
narrowness.  The rows are the router's ``window_log``; a window's tier
is its tenant's arrival event's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.apps.synthetic import (
    build_bandwidth_bound_application,
    build_synthetic_application,
)
from repro.stage import Application
from repro.errors import FleetError, ReproError, TrafficError
from repro.fleet.router import FleetRouter
from repro.fleet.metrics import FleetReport
from repro.obs.alerts import BurnAlert, BurnRateEvaluator, BurnRateRule
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.serve.scenario import _memory_bound_application
from repro.serve.tenant import TenantSpec, WindowSample
from repro.traffic.generator import (
    BANDWIDTH_BOUND,
    MEMORY_BOUND,
    SYNTHETIC,
    ArrivalEvent,
)


#: Applications the :func:`_application` memo keeps.  Sized from the
#: measured key spaces of this repo's traffic (distinct (kind, seed,
#: stage count) per soak, seed 7): 4 on `fleet_steady`, `fleet_overload`
#: and the shipped overload scenario, 179 on `fleet_coldplan_chaos`
#: (192-app pool) - so no workload evicts, and a full memo is what one
#: chaos soak's tenant records pin anyway.
_APPLICATION_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_APPLICATION_MEMO_SIZE)
def _application(app_kind: str, app_seed: int,
                 stage_count: int) -> Application:
    """The application an arrival of ``(app_kind, app_seed)`` runs.

    A pure function of its arguments - the constructors are seeded and
    an :class:`Application` is never mutated - so equal arrivals share
    one object, which is what lets everything keyed on the application
    (plans, deployments, remembered windows) be shared too.  An unknown
    kind raises on every call: exceptions are not memoised.
    """
    if app_kind == SYNTHETIC:
        return build_synthetic_application(
            seed=app_seed, stage_count=stage_count,
        )
    if app_kind == MEMORY_BOUND:
        return _memory_bound_application(app_seed, stage_count)
    if app_kind == BANDWIDTH_BOUND:
        return build_bandwidth_bound_application(
            seed=app_seed, stage_count=stage_count,
        )
    raise TrafficError(f"unknown application kind {app_kind!r}")


def materialize(event: ArrivalEvent, stage_count: int) -> TenantSpec:
    """Build the concrete tenant spec an arrival event describes."""
    return TenantSpec(
        name=event.name,
        application=_application(
            event.app_kind, event.app_seed, stage_count),
        priority=event.priority,
        windows=event.windows,
        window_tasks=event.window_tasks,
    )


@dataclass
class TrafficRunResult:
    """Everything one soak produced, pre-aggregation."""

    ticks: int
    fleet_report: Optional[FleetReport] = None
    arrivals: Dict[str, ArrivalEvent] = field(default_factory=dict)
    #: Every served window, in harvest order: the router's
    #: ``window_log`` itself.
    samples: List[WindowSample] = field(default_factory=list)
    #: Per-tick trajectory: arrivals, served windows, SLO-attaining
    #: window-tasks (goodput), and fleet backlog depth.
    per_tick: List[Dict[str, object]] = field(default_factory=list)
    #: Per-tier burn-rate alerts (``OpenLoopDriver(burn=...)``); None
    #: when burn alerting was off for the run (an empty list means
    #: "armed, nothing burned").
    burn_alerts: Optional[List[BurnAlert]] = None


class OpenLoopDriver:
    """Feed an arrival source (``events``, see the module docstring)
    into a fleet for ``ticks`` (default: ``config.max_ticks``) ticks."""

    def __init__(
        self,
        router: FleetRouter,
        events: Sequence[Union[TenantSpec, ArrivalEvent]],
        ticks: Optional[int] = None,
        stage_count: int = 3,
        slo_by_tier: Optional[Dict[str, float]] = None,
        burn: Optional[BurnRateRule] = None,
    ):
        if ticks is None:
            ticks = router.config.max_ticks
        if ticks < 1:
            raise TrafficError("driver needs at least one tick")
        self.router = router
        self.ticks = ticks
        self.stage_count = stage_count
        #: tier name -> largest attaining slowdown (for the per-tick
        #: goodput trajectory; the full report recomputes from samples).
        self.slo_by_tier = dict(slo_by_tier or {})
        #: Per-tier burn-rate alerting over window attainment; off by
        #: default so the default soak's report bytes are unchanged.
        self._burn = (BurnRateEvaluator(burn)
                      if burn is not None else None)
        # A stream holds arrival events; anything else - an empty
        # source too - is a fixed tenant list, all of it due at tick 0.
        events = list(events)
        self._stream = any(isinstance(event, ArrivalEvent)
                           for event in events)
        self._fixed: List[TenantSpec] = [] if self._stream else events
        self._by_tick: Dict[int, List[ArrivalEvent]] = {}
        for event in events if self._stream else ():
            if event.tick >= ticks:
                continue
            self._by_tick.setdefault(event.tick, []).append(event)

    def run(
        self,
        on_tick: Optional[Callable[[Dict[str, object]], None]] = None,
    ) -> TrafficRunResult:
        """Drive the fleet over the horizon and harvest the outcome.

        ``on_tick`` (when given) observes each completed tick's
        trajectory entry of a stream as it lands - the hook ``repro top
        --watch`` renders from.  It runs on the deterministic tick clock
        and must not mutate the entry.

        Raises:
            FleetError: A fleet tick raised a :class:`ReproError`; the
                fleet is closed out first, with that message as the
                status detail of every tenant still placed.
        """
        router = self.router
        router.open_stepped()
        result = TrafficRunResult(ticks=self.ticks,
                                  samples=router.window_log)
        if self._burn is not None:
            result.burn_alerts = []
        window_cursor = 0
        reg = metrics()
        trc = tracer()
        # The detail only lands on tenants still non-terminal at close;
        # a drained fleet ignores it.
        detail = ("open-loop horizon reached with work in flight"
                  if self._stream else None)
        try:
            for spec in self._fixed:
                router.submit(spec)
            for tick in range(self.ticks):
                arrivals = self._by_tick.get(tick, ())
                for event in arrivals:
                    router.submit(materialize(event, self.stage_count))
                    result.arrivals[event.name] = event
                    if reg.enabled:
                        reg.counter("traffic.arrivals")
                        reg.counter("traffic.offered_windows",
                                    event.windows)
                    if trc.enabled:
                        trc.instant(
                            "traffic.arrival", "traffic",
                            track=f"tier:{event.tier}", tick=tick,
                            tenant=event.name, windows=event.windows,
                        )
                try:
                    drained = router.step(tick)
                except ReproError as error:
                    detail = str(error)
                    raise FleetError(
                        f"fleet loop aborted: {detail}") from error
                if not self._stream:
                    if drained:
                        result.ticks = tick + 1
                        break
                    continue

                fresh = result.samples[window_cursor:]
                window_cursor += len(fresh)
                served = len(fresh)
                goodput_tasks = 0
                #: tier -> [attained, missed] windows this tick (the
                #: burn evaluator's per-tick outcome feed).
                tier_outcomes: Dict[str, List[int]] = {
                    tier: [0, 0] for tier in sorted(self.slo_by_tier)
                }
                for row in fresh:
                    arrival = result.arrivals[row.tenant]
                    slo = self.slo_by_tier.get(arrival.tier)
                    attained = slo is not None and row.attains(slo)
                    if attained:
                        goodput_tasks += arrival.window_tasks
                    if slo is not None:
                        outcome = tier_outcomes.setdefault(
                            arrival.tier, [0, 0])
                        outcome[0 if attained else 1] += 1
                    if reg.enabled:
                        reg.counter("traffic.served_windows")
                        if attained:
                            reg.counter("traffic.goodput_tasks",
                                        arrival.window_tasks)
                        reg.observe(
                            f"traffic.slowdown.{arrival.tier}",
                            row.slowdown,
                        )
                backlog = router.pending_count
                if reg.enabled:
                    reg.gauge("traffic.backlog_depth", float(backlog))
                    reg.series_point("traffic.backlog_depth", tick,
                                     float(backlog))
                    reg.series_point("traffic.arrivals", tick,
                                     float(len(arrivals)))
                    reg.series_point("traffic.served_windows", tick,
                                     float(served))
                    reg.series_point("traffic.goodput_tasks", tick,
                                     float(goodput_tasks))
                if self._burn is not None:
                    for tier in sorted(tier_outcomes):
                        good, bad = tier_outcomes[tier]
                        alert = self._burn.observe(
                            tier, tick, good, bad)
                        if alert is not None:
                            result.burn_alerts.append(alert)
                            if trc.enabled:
                                trc.instant(
                                    "traffic.burn_alert", "traffic",
                                    track=f"tier:{tier}", tick=tick,
                                    fast_burn=round(
                                        alert.fast_burn, 9),
                                    slow_burn=round(
                                        alert.slow_burn, 9),
                                )
                entry = {
                    "tick": tick,
                    "arrivals": len(arrivals),
                    "served_windows": served,
                    "goodput_tasks": goodput_tasks,
                    "backlog": backlog,
                }
                result.per_tick.append(entry)
                if on_tick is not None:
                    on_tick(entry)
        finally:
            result.fleet_report = router.close_stepped(detail)
        return result

"""Fleet-level seeded chaos: whole-SoC failure domains.

:mod:`repro.runtime.faults` injects faults at dispatch granularity
(one kernel, one task, one PU).  The fleet's failure domain is the
whole SoC, so this module extends that machinery one level up with
four seeded fault shapes:

* **crash** - the shard's server dies mid-run; every live tenant on it
  is lost at the shard level (the fleet decides whether they fail over);
* **rejoin** - a crashed shard comes back after a delay as a *fresh
  generation* (empty placement, same platform and plan cache);
* **gray failure** - the shard keeps serving but stops heartbeating:
  the health monitor must declare it dead without any crash evidence;
* **degradation** - a partial PU-class brownout: the router hands the
  live shard's server its :class:`~repro.soc.interference.ExternalLoad`
  (busy fractions + DRAM demand on the affected classes) and end tick
  (:meth:`~repro.serve.server.PipelineServer.inject_drift`), which is
  exactly how the serving layer models interference it does not control.

Everything is declared up front in a :class:`ChaosSchedule`, so a chaos
run is a pure function of (platform set, tenant specs, chaos schedule,
seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import FleetError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.runtime.faults import (
    DEGRADE_END,
    DEGRADE_START,
    GRAY_END,
    GRAY_START,
    SOC_CRASH,
    SOC_REJOIN,
)


@dataclass(frozen=True)
class ShardCrashSpec:
    """Kill one shard at ``at_tick``; optionally rejoin later.

    A rejoined shard is a fresh server generation: its placement is
    empty, its tenant registry forgotten - only the platform and the
    shared plan cache survive the crash.
    """

    shard: str
    at_tick: int
    rejoin_tick: Optional[int] = None

    def __post_init__(self) -> None:
        if self.at_tick < 0:
            raise FleetError("crash at_tick must be >= 0")
        if self.rejoin_tick is not None and self.rejoin_tick <= self.at_tick:
            raise FleetError("rejoin_tick must be > at_tick")


@dataclass(frozen=True)
class GrayFailureSpec:
    """Suppress the shard's heartbeat over [start_tick, end_tick) while
    it keeps serving - the classic gray failure the health monitor must
    call dead without a crash to point at."""

    shard: str
    start_tick: int
    end_tick: int

    def __post_init__(self) -> None:
        if self.start_tick < 0:
            raise FleetError("gray start_tick must be >= 0")
        if self.end_tick <= self.start_tick:
            raise FleetError("gray end_tick must be > start_tick")

    def active_at(self, tick: int) -> bool:
        """Whether the gray failure is in force at ``tick`` (end exclusive)."""
        return self.start_tick <= tick < self.end_tick


@dataclass(frozen=True)
class DegradeSpec:
    """Partial PU-class brownout on one shard over a tick range.

    ``busy`` maps PU class -> stolen busy fraction (thermal throttling,
    a co-resident process); ``demand_gbps`` adds DRAM pressure.  Applied
    to the live shard as an injected drift (and to a generation that
    rejoins while it lasts), so the shard's own rescheduler reacts first
    and the fleet's SLO-breach failover is the second line of defence.
    """

    shard: str
    start_tick: int
    busy: Mapping[str, float] = field(default_factory=dict)
    demand_gbps: float = 0.0
    end_tick: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start_tick < 0:
            raise FleetError("degrade start_tick must be >= 0")
        if self.end_tick is not None and self.end_tick <= self.start_tick:
            raise FleetError("degrade end_tick must be > start_tick")
        if not self.demand_gbps >= 0.0:
            raise FleetError("degrade demand_gbps must be >= 0")
        for pu_class, fraction in self.busy.items():
            if not 0.0 < fraction <= 1.0:
                raise FleetError(
                    f"degrade busy fraction for {pu_class!r} must be "
                    "in (0, 1]"
                )


@dataclass
class ChaosSchedule:
    """Everything that will go wrong in one fleet run, declared up
    front."""

    crashes: List[ShardCrashSpec] = field(default_factory=list)
    grays: List[GrayFailureSpec] = field(default_factory=list)
    degradations: List[DegradeSpec] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.crashes or self.grays or self.degradations)

    def __post_init__(self) -> None:
        seen = set()
        for crash in self.crashes:
            if crash.shard in seen:
                raise FleetError(
                    f"shard {crash.shard!r} has multiple crash specs; "
                    "chain them via rejoin_tick instead"
                )
            seen.add(crash.shard)


class ChaosInjector:
    """Evaluates a :class:`ChaosSchedule` at fleet ticks and logs events.

    Single-threaded by design: only the thread stepping the fleet calls
    in, so the event log order is a pure function of the schedule.
    """

    def __init__(self, schedule: ChaosSchedule):
        self.schedule = schedule
        self.events: List[Dict[str, Any]] = []

    # -- logging (mirrors FaultInjector.record one level up) -----------
    def record(self, tick: int, kind: str, shard: str,
               detail: str = "") -> None:
        """Append one chaos event to the log and the obs spine."""
        self.events.append({
            "tick": tick, "kind": kind, "shard": shard, "detail": detail,
        })
        trc = tracer()
        if trc.enabled:
            trc.instant(f"chaos.{kind}", "fleet",
                        track=f"shard:{shard}", tick=tick, detail=detail)
        reg = metrics()
        if reg.enabled:
            reg.counter(f"chaos.{kind}")

    # -- schedule queries ----------------------------------------------
    def crashes_at(self, tick: int) -> List[ShardCrashSpec]:
        """The shard crashes scheduled for ``tick``."""
        return [c for c in self.schedule.crashes if c.at_tick == tick]

    def rejoins_at(self, tick: int) -> List[ShardCrashSpec]:
        """The crashed shards scheduled to rejoin at ``tick``."""
        return [c for c in self.schedule.crashes
                if c.rejoin_tick == tick]

    def gray_active(self, shard: str, tick: int) -> bool:
        """Whether a gray failure degrades ``shard`` at ``tick``."""
        return any(g.shard == shard and g.active_at(tick)
                   for g in self.schedule.grays)

    def gray_edges_at(self, tick: int) -> List[GrayFailureSpec]:
        """Gray windows starting or ending exactly at ``tick`` (for the
        event log; activity itself is queried via :meth:`gray_active`)."""
        return [g for g in self.schedule.grays
                if g.start_tick == tick or g.end_tick == tick]

    def degradations_at(self, tick: int) -> List[DegradeSpec]:
        """The brownouts that start at ``tick``."""
        return [d for d in self.schedule.degradations
                if d.start_tick == tick]

    def degrade_ends_at(self, tick: int) -> List[DegradeSpec]:
        """The brownouts that end at ``tick``."""
        return [d for d in self.schedule.degradations
                if d.end_tick == tick]

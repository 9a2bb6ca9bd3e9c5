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
* **degradation** - a partial PU-class brownout, modelled as a
  :class:`~repro.serve.server.DriftSpec` injected into the live shard
  (busy fractions + DRAM demand on the affected classes), which is
  exactly how the serving layer models interference it does not control.

Everything is declared up front in a :class:`ChaosSchedule` (or drawn
from a seed via :meth:`ChaosSchedule.random`), so a chaos run is a pure
function of (platform set, tenant specs, chaos schedule, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import FleetError
from repro.obs.metrics import metrics
from repro.obs.recorder import recorder
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
        return self.start_tick <= tick < self.end_tick


@dataclass(frozen=True)
class DegradeSpec:
    """Partial PU-class brownout on one shard over a tick range.

    ``busy`` maps PU class -> stolen busy fraction (thermal throttling,
    a co-resident process); ``demand_gbps`` adds DRAM pressure.  Applied
    to the live shard as an injected drift, so the shard's own
    rescheduler reacts first and the fleet's SLO-breach failover is the
    second line of defence.
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

    @property
    def n_events(self) -> int:
        return len(self.crashes) + len(self.grays) + len(self.degradations)

    def __post_init__(self) -> None:
        seen = set()
        for crash in self.crashes:
            if crash.shard in seen:
                raise FleetError(
                    f"shard {crash.shard!r} has multiple crash specs; "
                    "chain them via rejoin_tick instead"
                )
            seen.add(crash.shard)

    @classmethod
    def random(
        cls,
        seed: int,
        shard_names: Sequence[str],
        ticks: int,
        crash_rate: float = 0.0,
        gray_rate: float = 0.0,
        degrade_rate: float = 0.0,
        degrade_busy: float = 0.8,
        degrade_demand_gbps: float = 4.0,
        pu_classes: Sequence[str] = ("big", "medium", "little", "gpu"),
    ) -> "ChaosSchedule":
        """Draw a deterministic schedule: same seed, same chaos, always.

        Each shard independently receives at most one crash (with a
        rejoin halfway to the horizon), one gray window, and one
        degradation window, each with the given probability.
        """
        for name, rate in (("crash_rate", crash_rate),
                           ("gray_rate", gray_rate),
                           ("degrade_rate", degrade_rate)):
            if not 0.0 <= rate <= 1.0:
                raise FleetError(f"{name} must be in [0, 1]")
        if ticks < 8:
            raise FleetError("random chaos needs a horizon of >= 8 ticks")
        rng = np.random.default_rng(seed)
        schedule = cls()
        for shard in shard_names:
            if rng.random() < crash_rate:
                at = int(rng.integers(2, max(3, ticks // 2)))
                schedule.crashes.append(ShardCrashSpec(
                    shard=shard, at_tick=at,
                    rejoin_tick=at + max(2, (ticks - at) // 2),
                ))
            if rng.random() < gray_rate:
                start = int(rng.integers(2, max(3, ticks // 2)))
                schedule.grays.append(GrayFailureSpec(
                    shard=shard, start_tick=start,
                    end_tick=start + max(4, ticks // 4),
                ))
            if rng.random() < degrade_rate:
                start = int(rng.integers(2, max(3, ticks // 2)))
                schedule.degradations.append(DegradeSpec(
                    shard=shard, start_tick=start,
                    end_tick=start + max(4, ticks // 3),
                    busy={cls_: degrade_busy for cls_ in pu_classes},
                    demand_gbps=degrade_demand_gbps,
                ))
        return schedule


class ChaosInjector:
    """Evaluates a :class:`ChaosSchedule` at fleet ticks and logs events.

    Single-threaded by design: only the thread stepping the fleet calls
    in, so the event log order is a pure function of the schedule.  The
    seeded RNG backs anything downstream that needs randomness tied to
    the chaos stream (e.g. :meth:`ChaosSchedule.random` regeneration or
    future probabilistic faults) without touching global state.
    """

    def __init__(self, schedule: ChaosSchedule, seed: int = 0):
        self.schedule = schedule
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.events: List[Dict[str, Any]] = []
        self._degrade_ends: List[DegradeSpec] = []

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
        rec = recorder()
        if rec.enabled:
            rec.record(f"chaos.{kind}", tick=tick, shard=shard,
                       detail=detail)
        reg = metrics()
        if reg.enabled:
            reg.counter(f"chaos.{kind}")

    # -- schedule queries ----------------------------------------------
    def crashes_at(self, tick: int) -> List[ShardCrashSpec]:
        return [c for c in self.schedule.crashes if c.at_tick == tick]

    def rejoins_at(self, tick: int) -> List[ShardCrashSpec]:
        return [c for c in self.schedule.crashes
                if c.rejoin_tick == tick]

    def gray_active(self, shard: str, tick: int) -> bool:
        return any(g.shard == shard and g.active_at(tick)
                   for g in self.schedule.grays)

    def gray_edges_at(self, tick: int) -> List[GrayFailureSpec]:
        """Gray windows starting or ending exactly at ``tick`` (for the
        event log; activity itself is queried via :meth:`gray_active`)."""
        return [g for g in self.schedule.grays
                if g.start_tick == tick or g.end_tick == tick]

    def degradations_at(self, tick: int) -> List[DegradeSpec]:
        return [d for d in self.schedule.degradations
                if d.start_tick == tick]

    def degrade_ends_at(self, tick: int) -> List[DegradeSpec]:
        return [d for d in self.schedule.degradations
                if d.end_tick == tick]

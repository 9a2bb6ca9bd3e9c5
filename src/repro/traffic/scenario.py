"""The soak presets: every serving command's fleet and arrival source,
each handed to the one soak runner it feeds.

A preset is data plus one ``driver(**arms)`` that builds a fresh fleet
and returns the runner (:class:`~repro.traffic.driver.OpenLoopDriver`)
over it, so the CLI, CI, ``benchmarks/`` and the acceptance tests all
run exactly what ships:

* :class:`SoakScenario` (``repro serve``, ``repro trace --serve``):
  three concurrent tenants packed onto disjoint PU partitions of one
  SoC (partition cap 1, so pixel7a's four clusters hold all three with
  one to spare), a drift victim pinned to a known class so outside load
  can be injected *on* that class mid-run, and a fourth submission
  whose required class is already taken - with no room to wait it must
  be rejected (no oversubscription);
* :class:`FleetSoakScenario` (``repro fleet``): twelve tenants on four
  pixel7a shards and one of each failure shape mid-run - ``soc2`` goes
  **gray** over ticks [8, 16) (it keeps serving but stops heartbeating,
  so health must declare it dead on beat evidence alone), ``soc1``
  **crashes** at tick 14 and rejoins at tick 20 as a fresh generation,
  and ``soc3`` **degrades** over ticks [22, 60) (a 95% brownout of every
  PU class plus DRAM pressure, so only the fleet's SLO-breach failover
  can rescue its tenants).  With failover disabled, soc1's tenants are
  lost outright and soc3's survivors drag their degraded windows into
  the fleet-wide p95;
* :class:`FleetOverloadScenario` (``repro traffic``, ``repro top``):
  ~1.5x the fleet's saturation load (with a mid-run burst on top), run
  once with the interference-aware admission ceiling and once admitting
  everything that physically fits.  Admit-everything packs every shard
  to its class limit and blows through the tier SLOs; the ceiling turns
  the excess into fast structured rejections instead.  Throughput
  favours admit-everything; *goodput* - SLO-attaining window-tasks -
  must strictly favour admission control (the acceptance gate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.apps.synthetic import (
    build_memory_bound_application,
    build_synthetic_application,
)
from repro.errors import FleetError, ServeError, TrafficError
from repro.fleet.chaos import (
    ChaosSchedule,
    DegradeSpec,
    GrayFailureSpec,
    ShardCrashSpec,
)
from repro.fleet.health import HealthConfig
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.scenario import DEGRADED_CLASSES
from repro.fleet.shard import ShardSpec
from repro.obs.alerts import BurnRateRule
from repro.serve.tenant import TenantSpec
from repro.traffic.driver import OpenLoopDriver, TrafficRunResult
from repro.traffic.generator import TrafficGenerator
from repro.traffic.slo import TrafficReport, evaluate
from repro.traffic.spec import BurstSpec, TierSpec, TrafficSpec
from repro.traffic.trace import TrafficTrace

#: The class the serving soak's drift victim is pinned to (and drift
#: injected on).
DRIFT_CLASS = "big"
#: The class the high-priority tenant and the doomed probe both need.
CONTESTED_CLASS = "gpu"


@dataclass(frozen=True)
class SoakScenario:
    """Parameters of one deterministic serving soak run."""

    platform_name: str = "pixel7a"
    seed: int = 7
    windows: int = 30
    window_tasks: int = 10
    drift_start_tick: int = 4

    @property
    def max_ticks(self) -> int:
        """The tick budget: ``windows`` plus slack, so a soak that
        drains at tick ``windows`` never meets it (48 at the default
        30)."""
        return self.windows + 18

    def __post_init__(self) -> None:
        if self.windows < 8:
            raise ServeError(
                "soak needs >= 8 windows for a meaningful p95"
            )
        if self.drift_start_tick < 2:
            raise ServeError(
                "drift must start after the baseline window (tick >= 2)"
            )

    def tenants(self) -> List[TenantSpec]:
        """The four submissions, in submission order (three-stage
        applications):

        * ``tenant-gpu``   - needs the GPU (hard), priority 0;
        * ``tenant-drift`` - *prefers* the drift class (soft, so the
          rescheduler may flee it later), priority 1;
        * ``tenant-bg``    - prefers the little cores, priority 0;
          leaves the medium cluster free as the drift victim's escape
          hatch;
        * ``tenant-probe`` - needs the GPU *after* ``tenant-gpu`` holds
          it; with no room to wait, it must be rejected.
        """
        def app(offset: int):
            return build_synthetic_application(
                seed=self.seed + offset, stage_count=3,
            )

        common = dict(windows=self.windows,
                      window_tasks=self.window_tasks)
        return [
            TenantSpec(
                name="tenant-gpu", application=app(1), priority=0,
                required_classes=frozenset({CONTESTED_CLASS}), **common,
            ),
            TenantSpec(
                name="tenant-drift",
                application=build_memory_bound_application(
                    self.seed + 2, stage_count=3
                ),
                priority=1,
                preferred_classes=frozenset({DRIFT_CLASS}), **common,
            ),
            TenantSpec(
                name="tenant-bg", application=app(3), priority=0,
                preferred_classes=frozenset({"little"}), **common,
            ),
            # Same application as tenant-gpu: exercises the plan cache
            # *and* guarantees its required class is already held.
            TenantSpec(
                name="tenant-probe", application=app(1), priority=2,
                required_classes=frozenset({CONTESTED_CLASS}), **common,
            ),
        ]

    def driver(self, reschedule: bool = True) -> OpenLoopDriver:
        """The soak's tenants on a fresh one-shard fleet (``soc0`` at
        the soak seed, failover off): no room to wait, impact ceiling
        1.5, one class a tenant, and outside load on the drift class
        from ``drift_start_tick`` on.

        Raises:
            ServeError: The platform lacks a PU class the soak pins.
        """
        router = FleetRouter(
            [ShardSpec("soc0", platform_name=self.platform_name,
                       platform_seed=self.seed)],
            seed=self.seed,
            config=FleetConfig(
                max_ticks=self.max_ticks,
                queue_capacity=0,
                max_impact_ratio=1.5,
                max_partition_classes=1,
                reschedule=reschedule,
                failover=False,
            ),
            chaos=ChaosSchedule(degradations=[DegradeSpec(
                "soc0", start_tick=self.drift_start_tick,
                busy={DRIFT_CLASS: 0.8}, demand_gbps=4.0)]),
        )
        platform = router.shards[0].platform
        for needed in (DRIFT_CLASS, CONTESTED_CLASS, "little"):
            if needed not in platform.schedulable_classes():
                raise ServeError(
                    f"soak scenario needs PU class {needed!r}; platform "
                    f"{platform.name!r} lacks it"
                )
        return OpenLoopDriver(router, self.tenants())


#: Fleet-soak tenant lifetimes cycle through these window counts.  The
#: short ones free shard slots before the first failure hits (which is
#: what lets survivors absorb failover batches); the long ones are still
#: running when the degradation window opens, so the SLO-breach
#: failover has victims to rescue.
WINDOWS_CYCLE = (8, 18, 40)


@dataclass(frozen=True)
class FleetSoakScenario:
    """Parameters of one deterministic fleet chaos soak run."""

    seed: int = 7
    n_shards: int = 4
    n_tenants: int = 12
    platform_name: str = "pixel7a"
    max_ticks: int = 96

    def __post_init__(self) -> None:
        if self.n_shards < 4:
            raise FleetError(
                "the fleet soak needs >= 4 shards (three failure "
                "domains plus at least one untouched survivor)"
            )
        if self.n_tenants < 12:
            raise FleetError(
                "the fleet soak needs >= 12 tenants for meaningful "
                "failover batches"
            )

    def shard_names(self) -> Tuple[str, ...]:
        """The shards, ``soc0`` to ``soc{n_shards - 1}``."""
        return tuple(f"soc{i}" for i in range(self.n_shards))

    def chaos(self) -> ChaosSchedule:
        """The three failure shapes of the module docstring."""
        return ChaosSchedule(
            crashes=[ShardCrashSpec("soc1", at_tick=14, rejoin_tick=20)],
            grays=[GrayFailureSpec("soc2", start_tick=8, end_tick=16)],
            degradations=[DegradeSpec(
                "soc3", start_tick=22, end_tick=60,
                busy={c: 0.95 for c in DEGRADED_CLASSES},
                demand_gbps=16.0,
            )],
        )

    def tenants(self) -> List[TenantSpec]:
        """The tenants, in submission order.

        They cycle through three lifetimes (:data:`WINDOWS_CYCLE`),
        three priorities (0 is shed first), and four shared three-stage
        applications (two compute-bound synthetic, two memory-bound
        streaming; three tenants per application, so the per-platform
        plan caches get real hit traffic), six tasks a window.
        """
        tenants = []
        for i in range(self.n_tenants):
            app_seed = self.seed + (i % 4)
            if i % 2 == 0:
                application = build_synthetic_application(
                    seed=app_seed, stage_count=3,
                )
            else:
                application = build_memory_bound_application(
                    app_seed, stage_count=3,
                )
            tenants.append(TenantSpec(
                name=f"tenant-{i:02d}",
                application=application,
                priority=i % 3,
                windows=WINDOWS_CYCLE[i % 3],
                window_tasks=6,
            ))
        return tenants

    def driver(self, failover: bool = True,
               attribution: bool = False) -> OpenLoopDriver:
        """The soak's tenants on a fresh fleet under :meth:`chaos`."""
        # Shards alternate platform seeds 7 and 11; shards sharing a seed
        # share one platform object and one plan cache.
        router = FleetRouter(
            [ShardSpec(
                name=name,
                platform_name=self.platform_name,
                platform_seed=(7, 11)[i % 2],
            ) for i, name in enumerate(self.shard_names())],
            seed=self.seed,
            config=FleetConfig(
                max_ticks=self.max_ticks,
                failover=failover,
                # Relative SLO: a shard breaches when its mean
                # window-latency ratio to first-window baselines exceeds
                # 1.5x for 2 consecutive ticks - above normal co-tenant
                # interference swing, well under the brownout's hit.
                health=HealthConfig(slo_factor=1.5, slo_breach_ticks=2),
                attribution=attribution,
            ),
            chaos=self.chaos(),
        )
        return OpenLoopDriver(router, self.tenants())


#: The overload scenario's service tiers.  The SLOs sit deliberately
#: between the two regimes the admission ceiling separates: a
#: ceiling-respecting pack keeps every incumbent's predicted slowdown
#: under ~1.25, while admit-everything's full packs run their CPU-side
#: windows at 1.25-1.55x (DRAM saturation included) - so these
#: thresholds are attainable with admission control and breached en
#: masse without it.
OVERLOAD_TIERS = (
    TierSpec(name="gold", priority=2, weight=1.0, slo_slowdown=1.18),
    TierSpec(name="silver", priority=1, weight=2.0, slo_slowdown=1.20),
    TierSpec(name="bronze", priority=0, weight=3.0, slo_slowdown=1.22),
)


#: Arrivals per tick that saturate one fully-packed pixel7a shard.
SATURATION_ARRIVALS_PER_SHARD = 0.55

#: The load multiples of ``traffic soak --curve``: with admission
#: control goodput plateaus past saturation, without it it collapses.
CURVE_MULTIPLIERS = (0.5, 1.0, 1.5, 2.0)


@dataclass(frozen=True)
class FleetOverloadScenario:
    """Parameters of one deterministic overload run on pixel7a shards
    serving three-stage applications."""

    seed: int = 7
    n_shards: int = 2
    ticks: int = 48
    #: Arrival intensity at 1.0x: calibrated so the offered window
    #: demand roughly matches what n_shards fully-packed pixel7a
    #: shards can serve (one window per running tenant per tick,
    #: four single-class partitions per shard).  None scales it with
    #: the fleet - SATURATION_ARRIVALS_PER_SHARD per shard, i.e. 1.1
    #: on the default two - so "1.5x" means overload at any size.
    saturation_arrivals_per_tick: Optional[float] = None
    #: The overload knob: offered load as a multiple of saturation.
    load_multiplier: float = 1.5
    #: Admission-on ceiling on each incumbent's *total* predicted
    #: slowdown (cumulative pricing).  1.25 allows pairs and most
    #: triples but refuses the fourth co-tenant and any pack whose
    #: heavier pipelines (contention spans up to ~1.55) would be
    #: crushed - so admitted windows stay under the tier SLOs.  A
    #: constant, not a field: the bench fleets read it too.
    admission_max_impact_ratio: ClassVar[float] = 1.25
    #: Ticks an unplaceable tenant waits before structured rejection -
    #: short, so overload sheds load instead of parking it.  Like the
    #: shards' platform seed, a constant the bench fleets read too.
    backlog_patience: ClassVar[int] = 6
    platform_seed: ClassVar[int] = 7
    app_pool_size: int = 4

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise TrafficError("overload scenario needs >= 1 shard")
        if self.load_multiplier <= 0.0:
            raise TrafficError("load_multiplier must be positive")
        if self.saturation_arrivals_per_tick is None:
            object.__setattr__(
                self, "saturation_arrivals_per_tick",
                SATURATION_ARRIVALS_PER_SHARD * self.n_shards,
            )

    def spec(self) -> TrafficSpec:
        """The workload this scenario offers: a diurnal swing plus a
        mid-run burst over ticks [16, 24) (also what the recovery
        metric watches)."""
        return TrafficSpec(
            ticks=self.ticks,
            arrivals_per_tick=self.saturation_arrivals_per_tick,
            load_multiplier=self.load_multiplier,
            diurnal_amplitude=0.25,
            diurnal_period_ticks=self.ticks,
            bursts=(BurstSpec(start_tick=16, end_tick=24, multiplier=2.0),),
            tiers=OVERLOAD_TIERS,
            app_pool_size=self.app_pool_size,
            stage_count=3,
        )

    def driver(self, admission: bool = True,
               trace: Optional[TrafficTrace] = None,
               attribution: bool = False,
               burn: Optional[BurnRateRule] = None) -> OpenLoopDriver:
        """The runner for one open-loop run of this scenario, on a
        fresh fleet.  A ``trace`` replaces the generated stream, and its
        own spec sets the horizon and SLOs; ``attribution``/``burn`` arm
        blame decomposition and burn-rate alerting (``repro top``)."""
        if trace is not None:
            spec, events = trace.spec, list(trace.events)
        else:
            spec = self.spec()
            events = TrafficGenerator(spec, seed=self.seed).events()
        # Admit everything: an impact ceiling no prediction reaches,
        # so shards pack until no free PU classes remain.
        ratio = self.admission_max_impact_ratio if admission else 1e9
        router = FleetRouter(
            [ShardSpec(
                name=f"soc{i}",
                platform_name="pixel7a",
                platform_seed=self.platform_seed,
            ) for i in range(self.n_shards)],
            seed=self.seed,
            config=FleetConfig(
                max_ticks=self.ticks,
                max_impact_ratio=ratio,
                # Cumulative pricing makes the ceiling a hard bound on
                # how deep a shard can ever be packed; at the
                # admit-everything ratio no prediction reaches it, so
                # the mode is inert for the OFF arm.
                cumulative_impact=True,
                max_partition_classes=1,
                backlog_patience=self.backlog_patience,
                health=HealthConfig(),
                attribution=attribution,
            ),
        )
        return OpenLoopDriver(
            router, events, ticks=spec.ticks,
            stage_count=spec.stage_count,
            slo_by_tier={tier.name: tier.slo_slowdown
                         for tier in spec.tiers},
            burn=burn,
        )

    def run(self, trace: Optional[TrafficTrace] = None,
            on_tick: Optional[Callable[[Dict[str, object]], None]] = None,
            **arms) -> Tuple[TrafficRunResult, TrafficReport]:
        """One run of :meth:`driver` (``arms`` go to it), evaluated
        against the spec and seed of its arrival stream: the trace's,
        or this scenario's.  ``on_tick`` observes each tick (see
        :meth:`OpenLoopDriver.run`)."""
        result = self.driver(trace=trace, **arms).run(on_tick=on_tick)
        spec, seed = ((trace.spec, trace.seed) if trace is not None
                      else (self.spec(), self.seed))
        return result, evaluate(spec, seed, result)

    def curve(self, admission: bool = True) -> List[Dict[str, object]]:
        """Goodput against offered load: one run at each of
        :data:`CURVE_MULTIPLIERS` (``traffic soak --curve``)."""
        points = []
        for multiplier in CURVE_MULTIPLIERS:
            _, report = replace(self, load_multiplier=multiplier).run(
                admission=admission)
            points.append({
                "load_multiplier": multiplier,
                "arrivals": report.arrivals,
                "offered_windows": report.offered_windows,
                "served_windows": report.served_windows,
                "goodput_windows": report.goodput_windows,
                "goodput_tasks": report.goodput_tasks,
            })
        return points

"""The overload preset: one scenario behind ``repro traffic`` and
``repro top``, the CI ``traffic-soak`` job, and the acceptance tests.

Preset data only: :meth:`FleetOverloadScenario.driver` hands the one
soak runner (:class:`~repro.traffic.driver.OpenLoopDriver`) this
scenario's fleet and arrival stream, so the open-loop determinism
guarantee and the admission-control goodput gate are exercised on
exactly what ships.

The default scenario offers ~1.5x the fleet's saturation load (with a
mid-run burst on top) and runs twice per evaluation: once with the
interference-aware admission ceiling, once admitting everything that
physically fits.  Admit-everything packs every shard to its class
limit, so every window is served at the interference-heavy end of the
profile and blows through the tier SLOs; the admission ceiling keeps
high-contention-span tenants from being packed and turns the excess
into fast structured rejections instead.  Throughput favours
admit-everything; *goodput* - SLO-attaining window-tasks, the number a
production fleet actually sells - must strictly favour admission
control (the acceptance gate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar, Optional

from repro.errors import TrafficError
from repro.fleet.health import HealthConfig
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.shard import ShardSpec
from repro.obs.alerts import BurnRateRule
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.generator import TrafficGenerator
from repro.traffic.spec import BurstSpec, TierSpec, TrafficSpec
from repro.traffic.trace import TrafficTrace

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

    def at_multiplier(self, multiplier: float) -> "FleetOverloadScenario":
        """The same scenario at a different offered-load multiple."""
        return replace(self, load_multiplier=multiplier)

    def driver(self, admission: bool = True,
               trace: Optional[TrafficTrace] = None,
               attribution: bool = False,
               burn: Optional[BurnRateRule] = None) -> OpenLoopDriver:
        """The runner for one open-loop run of this scenario, on a
        fresh fleet.  A ``trace`` replaces the generated stream, and its
        own spec sets the horizon and SLOs (evaluate against
        ``trace.spec`` and ``trace.seed``); ``attribution``/``burn`` arm
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

"""The fleet presets: the chaos soak behind ``repro fleet`` and the
one-shard fleets behind ``repro serve`` and ``repro submit``.

Preset data only - shards, config, chaos, tenants; the one soak runner
(:class:`~repro.traffic.driver.OpenLoopDriver`) drives every one of
them, so the determinism guarantees are exercised on exactly what the
CLI, the CI ``fleet-chaos`` job and the acceptance tests run.

The default soak packs twelve tenants onto four pixel7a shards and
throws one of each failure shape at the fleet mid-run:

* ``soc2`` goes **gray** over ticks [8, 16): it keeps serving but stops
  heartbeating, so the health monitor must declare it dead on beat
  evidence alone and failover must drain a *live* server;
* ``soc1`` **crashes** at tick 14 and rejoins at tick 20 as a fresh
  generation, re-entering service through the half-open breaker;
* ``soc3`` **degrades** over ticks [22, 60) (a 95% brownout of every
  PU class plus DRAM pressure): the shard's own rescheduler cannot flee
  - every class is hit - so the fleet's SLO-breach failover is the only
  way its tenants recover.

With failover enabled every non-shed tenant finishes on a surviving
shard; with it disabled, soc1's tenants are lost outright and soc3's
survivors drag their degraded windows into the fleet-wide p95 - the
gap the acceptance test asserts is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.apps.synthetic import build_synthetic_application
from repro.errors import FleetError
from repro.serve.scenario import (
    DRIFT_CLASS,
    SoakScenario,
    _memory_bound_application,
)
from repro.serve.tenant import TenantSpec
from repro.fleet.chaos import (
    ChaosSchedule,
    DegradeSpec,
    GrayFailureSpec,
    ShardCrashSpec,
)
from repro.fleet.health import HealthConfig
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.shard import ShardSpec

#: PU classes browned out on the degraded shard (all of pixel7a's, so
#: the shard-local rescheduler has nowhere to flee).
DEGRADED_CLASSES = ("big", "medium", "little", "gpu")

#: Tenant lifetimes cycle through these window counts.  The short ones
#: free shard slots before the first failure hits (which is what lets
#: survivors absorb failover batches); the long ones are still running
#: when the degradation window opens, so the SLO-breach failover has
#: victims to rescue.
WINDOWS_CYCLE = (8, 18, 40)


@dataclass(frozen=True)
class FleetSoakScenario:
    """Parameters of one deterministic fleet soak run."""

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

        They cycle through three lifetimes (:data:`WINDOWS_CYCLE` - the
        short ones free slots before the first failure hits, which is
        what lets the survivors absorb failover batches), three
        priorities (0 is shed first), and four shared three-stage
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
                application = _memory_bound_application(
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


def build_fleet(scenario: FleetSoakScenario,
                failover: bool = True,
                attribution: bool = False) -> FleetRouter:
    """The soak's fleet, empty: run it on
    :meth:`FleetSoakScenario.tenants`."""
    # Shards alternate platform seeds 7 and 11; shards sharing a seed
    # share one platform object and one plan cache.
    return FleetRouter(
        [ShardSpec(
            name=name,
            platform_name=scenario.platform_name,
            platform_seed=(7, 11)[i % 2],
        ) for i, name in enumerate(scenario.shard_names())],
        seed=scenario.seed,
        config=FleetConfig(
            max_ticks=scenario.max_ticks,
            failover=failover,
            # Relative SLO: a shard breaches when its mean window-latency
            # ratio to first-window baselines exceeds 1.5x for 2
            # consecutive ticks - above normal co-tenant interference
            # swing, well under the brownout's hit.
            health=HealthConfig(slo_factor=1.5, slo_breach_ticks=2),
            attribution=attribution,
        ),
        chaos=scenario.chaos(),
    )


def one_shard_fleet(platform_name: str, platform_seed: int, seed: int,
                    config: FleetConfig,
                    chaos: Optional[ChaosSchedule] = None) -> FleetRouter:
    """A fleet of one shard, ``soc0``, with failover off: how ``repro
    serve``, ``repro submit`` and ``repro trace --serve`` run."""
    return FleetRouter(
        [ShardSpec("soc0", platform_name=platform_name,
                   platform_seed=platform_seed)],
        seed=seed, config=replace(config, failover=False), chaos=chaos,
    )


def serve_fleet(scenario: SoakScenario,
                reschedule: bool = True) -> FleetRouter:
    """The serving soak's one-shard fleet, empty (run it on the
    scenario's tenants): no room to wait, impact ceiling 1.5, one class
    a tenant, and outside load on the drift class from
    ``drift_start_tick`` on."""
    router = one_shard_fleet(
        scenario.platform_name, scenario.seed, scenario.seed,
        FleetConfig(
            max_ticks=scenario.max_ticks,
            queue_capacity=0,
            max_impact_ratio=1.5,
            max_partition_classes=1,
            reschedule=reschedule,
        ),
        chaos=ChaosSchedule(degradations=[DegradeSpec(
            "soc0", start_tick=scenario.drift_start_tick,
            busy={DRIFT_CLASS: 0.8}, demand_gbps=4.0)]),
    )
    scenario.check(router.shards[0].platform)
    return router

"""The four workloads: inputs, the timed region, and output checks.

Each workload stresses a different layer and idles the others, so an
optimisation has one workload that exercises its mechanism and one
that bypasses it (see ``bench/README.md`` for why each exists).  A
workload offers four steps to :mod:`bench.child`:

``prepare(seed)``  generated inputs - the only place the seed goes;
``fresh(inputs)``  the program objects one repeat runs on;
``run(...)``       the timed region, stamping segment boundaries;
``outcome(...)``   correctness checks and sim metrics of one repeat.

Everything is built through the program's public constructors; this
module imports :mod:`repro` and is therefore only imported inside the
child process.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines import homogeneous
from repro.core.framework import BetterTogether
from repro.core.schedule import validate_schedule
from repro.errors import ReproError
from repro.eval.experiments.common import (
    APP_ORDER,
    ExperimentScale,
    build_applications,
)
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
from repro.serve.tenant import COMPLETED, FAILED, REJECTED
from repro.fleet.tenant import SHED
from repro.soc import PLATFORM_NAMES
from repro.soc import platforms as soc_platforms
from repro.traffic import slo
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.generator import TrafficGenerator
from repro.traffic.scenario import FleetOverloadScenario

#: PAPER.md section 5.1: the overall Fig. 4 geomean speedup.
PAPER_FIG4_GEOMEAN = 2.17

#: The detail the open-loop driver closes the fleet with: tenants
#: still in flight at the horizon are cut, not failed.
HORIZON_DETAIL = "open-loop horizon reached with work in flight"

FULL, SMOKE = "full", "smoke"

#: One verification row: (name, ok, detail, failed operations).  A
#: per-operation check counts the operations that broke it; any other
#: failed check counts as one.
Check = Tuple[str, bool, str, int]


def check(name: str, ok: bool, detail: str,
          failed_ops: Optional[int] = None) -> Check:
    if ok:
        return (name, True, "", 0)
    return (name, False, detail, 1 if failed_ops is None else failed_ops)


def canonical(payload: object) -> bytes:
    """The byte form reports are hashed in (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values]
    return math.exp(sum(logs) / len(logs))


@dataclass
class Outcome:
    """What one repeat produced, for verification and sim metrics."""

    payload: bytes
    ops_attempted: int
    #: Modelled (deterministic) facts; keys are metric names.
    sim: Dict[str, float]
    #: Exact counts read off the program's own report.
    counts: Dict[str, float]
    checks: List[Check]

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.payload).hexdigest()

    @property
    def failed_ops(self) -> int:
        return sum(row[3] for row in self.checks)


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetInputs:
    seed: int
    scenario: FleetOverloadScenario
    spec: object
    events: list


@dataclass(frozen=True)
class FleetWorkload:
    """An open-loop traffic soak against a sharded fleet.

    Load is open-loop and generated: one thread submits every arrival
    the schedule holds for a tick whether or not the fleet kept up.
    """

    name: str
    why: str
    #: Shards cycle through these platforms; shards on one platform
    #: share a plan cache, so more platforms means more cold plans.
    platforms: Tuple[str, ...]
    n_shards: int
    ticks: int
    load_multiplier: float
    app_pool_size: int
    repeats: int
    chaos: bool = False
    #: Shape guards: what the run must show to still be the workload
    #: it was built as.
    min_plan_misses: int = 0
    min_failovers: int = 0
    min_migrations: int = 0
    min_rejects: int = 0
    max_reject_share: float = 1.0
    family: str = "fleet"
    warmup_ticks: int = 40

    def at_scale(self, scale: str) -> "FleetWorkload":
        if scale == FULL:
            return self
        # Smoke keeps the code paths, not the shape: guards that need
        # the full horizon are dropped.
        return replace(
            self, n_shards=max(2, len(self.platforms)), ticks=24,
            repeats=2, warmup_ticks=4, min_plan_misses=0,
            min_failovers=0, min_migrations=0, min_rejects=0,
            max_reject_share=1.0,
        )

    # -- inputs --------------------------------------------------------
    def prepare(self, seed: int, timers: Dict[str, float]) -> FleetInputs:
        scenario = FleetOverloadScenario(
            seed=seed,
            n_shards=self.n_shards,
            ticks=self.ticks,
            load_multiplier=self.load_multiplier,
            # The scenario's 1.1/tick saturates its 2 default shards;
            # scale it with the fleet or a larger fleet idles (the trap
            # `repro traffic soak --shards N` falls into).
            saturation_arrivals_per_tick=1.1 * self.n_shards / 2,
            app_pool_size=self.app_pool_size,
        )
        spec = scenario.spec()
        started = time.perf_counter()
        events = TrafficGenerator(spec, seed=seed).events()
        timers["traffic.generate_s"] = time.perf_counter() - started
        return FleetInputs(seed, scenario, spec, events)

    def _chaos(self) -> Optional[ChaosSchedule]:
        """Staggered crash+rejoins, a gray window and a brownout.

        A crash that finds its shard empty displaces nobody, and the
        workload must show >= 2 failovers and >= 1 migration on every
        seed - so there are four crashes, all in the diurnal curve's
        busy first half, where two would do on the default seed.
        """
        if not self.chaos:
            return None
        ticks, n = self.ticks, self.n_shards
        crashes = [(1, ticks // 8), (4, ticks // 4),
                   (5, (3 * ticks) // 8), (0, ticks // 2)]
        return ChaosSchedule(
            crashes=[ShardCrashSpec(f"soc{shard}", at_tick=at,
                                    rejoin_tick=at + ticks // 12)
                     for shard, at in crashes if shard < n],
            grays=[GrayFailureSpec("soc2", start_tick=ticks // 3,
                                   end_tick=ticks // 3 + ticks // 20 + 1)],
            degradations=[DegradeSpec(
                f"soc{min(3, n - 1)}",
                start_tick=(2 * ticks) // 3,
                end_tick=(2 * ticks) // 3 + ticks // 6,
                busy={c: 0.95 for c in DEGRADED_CLASSES},
                demand_gbps=16.0,
            )],
        )

    def fresh(self, inputs: FleetInputs,
              ticks: Optional[int] = None) -> OpenLoopDriver:
        scenario = inputs.scenario
        router = FleetRouter(
            [ShardSpec(
                name=f"soc{i}",
                platform_name=self.platforms[i % len(self.platforms)],
                platform_seed=scenario.platform_seed,
            ) for i in range(self.n_shards)],
            seed=inputs.seed,
            config=FleetConfig(
                max_ticks=self.ticks,
                max_impact_ratio=scenario.admission_max_impact_ratio,
                cumulative_impact=True,
                max_partition_classes=1,
                backlog_patience=scenario.backlog_patience,
                # With online rescheduling on, a shard can evict a
                # tenant whose last window is already in the tick's
                # batch; that window then fails with "holds no
                # placement" - a program defect that strikes ~45 % of
                # seeds under chaos and 1 in 24 at steady load.  A
                # benchmark needs workloads on which no operation
                # fails, and the reaction is rare where it works (2
                # reschedules in 4387 windows), so drift is left to
                # the fleet's breach/failover path.
                reschedule=False,
                health=HealthConfig(),
            ),
            chaos=self._chaos(),
        )
        spec = inputs.spec
        return OpenLoopDriver(
            router, inputs.events, ticks=ticks or spec.ticks,
            stage_count=spec.stage_count,
            slo_by_tier={t.name: t.slo_slowdown for t in spec.tiers},
        )

    def warm_up(self, inputs: FleetInputs) -> None:
        """Untimed: the first ticks on a throwaway fleet, so imports
        done lazily and numpy's first calls are out of the way."""
        self.fresh(inputs, ticks=self.warmup_ticks).run()

    # -- the timed region ----------------------------------------------
    def run(self, inputs: FleetInputs, driver: OpenLoopDriver,
            stamp: Callable[[], None], span) -> tuple:
        """A whole soak, report included; one segment per tick plus
        one for close-out + evaluation + the report dump."""
        result = driver.run(on_tick=lambda _entry: stamp())
        report = slo.evaluate(inputs.spec, inputs.seed, result)
        with span("bench.dump"):
            payload = canonical(report.to_dict())
        return driver.router, result, report, payload

    # -- checks and sim metrics ----------------------------------------
    def outcome(self, inputs: FleetInputs, ran: tuple) -> Outcome:
        router, result, report, payload = ran
        fleet_report = result.fleet_report
        counts = fleet_report.counts

        # Tenant conservation: every arrival ends as exactly one of
        # completed / rejected / shed / horizon-cut.
        lost = [name for name in result.arrivals
                if name not in router.tenants]
        bad = []
        for name, tenant in router.tenants.items():
            if tenant.status in (COMPLETED, REJECTED, SHED):
                continue
            if (tenant.status == FAILED
                    and tenant.status_detail == HORIZON_DETAIL):
                continue
            bad.append(f"{name}: {tenant.status} "
                       f"({tenant.status_detail})")
        slowdowns = [s.slowdown for s in result.samples]
        misses = fleet_report.plan_cache["misses"]
        failovers = counts.get("failover", 0)
        migrations = counts.get("migrate", 0)
        checks = [
            check("tenant_conservation", not (lost or bad),
                  "; ".join((lost + bad)[:3]), len(lost) + len(bad)),
            check("served_le_offered",
                  report.served_windows <= report.offered_windows,
                  f"{report.served_windows} > {report.offered_windows}"),
            check("slowdowns_positive",
                  bool(slowdowns) and all(s > 0.0 for s in slowdowns),
                  "no served window, or one with slowdown <= 0"),
            check("shape_plan_misses", misses >= self.min_plan_misses,
                  f"{misses} < {self.min_plan_misses}"),
            check("shape_failovers", failovers >= self.min_failovers,
                  f"{failovers} < {self.min_failovers}"),
            check("shape_migrations",
                  migrations >= self.min_migrations,
                  f"{migrations} < {self.min_migrations}"),
            check("shape_rejects",
                  self.min_rejects <= report.rejected
                  <= self.max_reject_share * max(report.arrivals, 1),
                  f"{report.rejected} rejects of {report.arrivals} "
                  "arrivals"),
        ]

        gold = report.tiers["gold"]
        offered = max(report.offered_windows, 1)
        sim = {
            "goodput_tasks": float(report.goodput_tasks),
            # Offered, not served, is the base: rejected, shed, aged-out
            # and horizon-cut windows all count as misses.
            "slo_attainment": report.goodput_windows / offered,
            "gold_p99_slowdown": gold.p99_slowdown,
            "gold_p99_samples": float(gold.served_windows),
            "sim_latency_ratio": (geomean(slowdowns)
                                  if checks[2][1] else float("nan")),
        }
        backlog_peak = max(
            (int(e["backlog"]) for e in result.per_tick), default=0)
        exact = {
            "served_windows": float(report.served_windows),
            "offered_windows": float(report.offered_windows),
            "traffic.report_bytes": float(len(payload)),
            "fleet.backlog_peak": float(backlog_peak),
            "fleet.placements": float(counts.get("place", 0)),
            "fleet.migrations": float(migrations),
            "fleet.failovers": float(failovers),
            "fleet.rejects": float(report.rejected),
            "fleet.shed": float(counts.get("shed", 0)),
            "fleet.window_log_len": float(len(router.window_log)),
            "core.plan_cache_hits": float(
                fleet_report.plan_cache["hits"]),
            "core.plan_cache_misses": float(misses),
        }
        return Outcome(payload, report.arrivals, sim, exact, checks)


# ----------------------------------------------------------------------
# The paper campaign
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignInputs:
    seed: int
    scale: ExperimentScale
    applications: dict


@dataclass(frozen=True)
class CampaignWorkload:
    """Fig. 4: profile -> solve -> autotune per (app, platform) cell,
    plus the homogeneous baselines it is compared against.  Closed
    loop by nature: one plan is computed after another."""

    name: str
    why: str
    platforms: Tuple[str, ...]
    apps: Tuple[str, ...]
    repeats: int
    quick: bool = False
    family: str = "campaign"

    def at_scale(self, scale: str) -> "CampaignWorkload":
        if scale == FULL:
            return self
        return replace(self, platforms=self.platforms[:1],
                       apps=self.apps[-1:], repeats=2, quick=True)

    def prepare(self, seed: int,
                timers: Dict[str, float]) -> CampaignInputs:
        scale = (ExperimentScale.quick() if self.quick
                 else ExperimentScale.paper())
        started = time.perf_counter()
        applications = build_applications(scale)
        timers["apps.build_s"] = time.perf_counter() - started
        return CampaignInputs(seed, scale, applications)

    def fresh(self, inputs: CampaignInputs) -> list:
        # The seed reaches the program as the virtual SoCs'
        # measurement-noise seed.
        return [soc_platforms.get_platform(name, inputs.seed)
                for name in self.platforms]

    def warm_up(self, inputs: CampaignInputs) -> None:
        """None: a campaign is cold by nature."""

    def run(self, inputs: CampaignInputs, platforms: list,
            stamp: Callable[[], None], span) -> list:
        """Every cell's ``BetterTogether.run`` + baselines; one
        segment per cell."""
        scale = inputs.scale
        cells = []
        for platform in platforms:
            framework = BetterTogether(
                platform, repetitions=scale.repetitions, k=scale.k,
                eval_tasks=scale.eval_tasks,
            )
            for app_name in self.apps:
                application = inputs.applications[app_name]
                plan = framework.run(application)
                baseline = homogeneous.measure_baselines(
                    application, platform, n_tasks=30)
                cells.append((platform, application, plan, baseline))
                stamp()
        return cells

    def outcome(self, inputs: CampaignInputs, cells: list) -> Outcome:
        rows = []
        invalid = []
        speedups, latencies = [], []
        for platform, application, plan, baseline in cells:
            cell = f"{application.name}@{platform.name}"
            try:
                validate_schedule(
                    plan.schedule, application,
                    available_pus=platform.schedulable_classes())
            except ReproError as error:
                invalid.append(f"{cell}: {error}")
            if plan.optimization.degraded:
                invalid.append(f"{cell}: degraded plan")
            speedups.append(baseline.best_latency_s
                            / plan.measured_latency_s)
            latencies.append(plan.measured_latency_s)
            rows.append({
                "cell": cell,
                "schedule": plan.schedule.describe(application),
                "bt_latency_s": plan.measured_latency_s,
                "predicted_latency_s": plan.predicted_latency_s,
                "baseline": baseline.best_name,
                "baseline_latency_s": baseline.best_latency_s,
            })
        payload = canonical({"seed": inputs.seed, "cells": rows})
        speedup = geomean(speedups)
        sim = {
            "bt_latency_geomean_ms": geomean(latencies) * 1e3,
            "fig4_geomean_speedup": speedup,
            "fig4_geomean_err": (abs(speedup - PAPER_FIG4_GEOMEAN)
                                 / PAPER_FIG4_GEOMEAN),
            # A plan attains its goal when it beats the best
            # homogeneous baseline (Fig. 4: speedup > 1 per cell).
            "goodput_tasks": float(inputs.scale.eval_tasks * sum(
                1 for s in speedups if s > 1.0)),
            "sim_latency_ratio": 1.0 / speedup,
        }
        checks = [
            check("plans_valid", not invalid, "; ".join(invalid[:3]),
                  len(invalid)),
        ]
        return Outcome(payload, len(cells), sim, {}, checks)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_FLEET_PLATFORM = ("pixel7a",)

WORKLOADS = {w.name: w for w in (
    CampaignWorkload(
        name="paper_campaign",
        why=("The paper's own journey (Fig. 4, 3 apps x 4 SoCs at paper "
             "scale): the solver does ~85% of the work and "
             "serve/fleet/traffic none - the bypass for every fleet "
             "optimisation, and the only carrier of model fidelity."),
        platforms=tuple(PLATFORM_NAMES),
        apps=tuple(APP_ORDER),
        repeats=3,
    ),
    FleetWorkload(
        name="fleet_steady",
        why=("8 shards at 0.5x saturation: everything offered is placed "
             "first try, so the DES (many short 6-task windows) "
             "dominates and admission idles - where DES work must show "
             "and placement work must not."),
        platforms=_FLEET_PLATFORM, n_shards=8, ticks=400,
        load_multiplier=0.5, app_pool_size=4, repeats=5,
        max_reject_share=0.02,
    ),
    FleetWorkload(
        name="fleet_overload",
        why=("Same fleet at 1.5x saturation: a standing backlog is "
             "re-priced against every shard every tick, so admission "
             "dominates with a ~100% plan-cache hit rate - where "
             "placement memoisation must show; the goodput/SLO regime."),
        platforms=_FLEET_PLATFORM, n_shards=8, ticks=160,
        load_multiplier=1.5, app_pool_size=4, repeats=5,
        min_rejects=1,
    ),
    FleetWorkload(
        name="fleet_coldplan_chaos",
        why=("6 shards over 3 SoC types, a 192-app pool and crashes, a "
             "gray failure and a brownout: the plan cache misses ~540x "
             "(profiler + tiny solves) and placement runs as failover - "
             "a memo that taxes misses or drops failover shows here."),
        platforms=("pixel7a", "oneplus11", "jetson_orin_nano"),
        n_shards=6, ticks=240, load_multiplier=0.7, app_pool_size=192,
        repeats=5, chaos=True, min_plan_misses=400, min_failovers=2,
        min_migrations=1,
    ),
)}

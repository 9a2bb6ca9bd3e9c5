"""The fleet router: N SoC shards, one tick the caller drives.

Scale-out mirrors the single-SoC serving design one level up.  The
router has no thread of its own: whoever calls :meth:`FleetRouter.step`
owns every mutable fleet structure - the tenant registry, the backlog,
the shard set - and each fleet tick steps every shard's
:class:`~repro.serve.server.PipelineServer` in lockstep.  The one loop
that calls it is :class:`~repro.traffic.driver.OpenLoopDriver`'s.
Submissions may cross threads through a lock-guarded inbox; after the
inbox, everything belongs to the stepping thread, so a fleet run is a
pure function of (platform set, tenant specs, chaos schedule, seed).
The backlog is the only wait queue in the stack: a shard never queues.

Per tick, in fixed phase order:

1. **chaos** - apply scheduled crashes, rejoins, gray windows, and
   degradations (:mod:`repro.fleet.chaos`);
2. **placement** - drain the inbox and place backlogged tenants on the
   shard whose cached interference tables predict least impact (the
   shard admission controller's ``predicted_impact``/latency, ties
   broken by load then shard index), honouring each shard's circuit
   breaker; an arrival no shard admits waits in the backlog if it has
   room (``queue_capacity``), for at most ``backlog_patience`` ticks;
3. **step** - advance every live shard one tick (counting a beat
   unless a gray window suppresses it);
4. **harvest** - absorb new shard timeline events into fleet state
   (each served window's :class:`~repro.serve.tenant.WindowSample` row,
   completions, shard-level evictions back into the backlog as
   migrations, failures);
5. **health** - classify every shard from beat counts and window
   latency ratios, advance circuit breakers, and on shard death or
   sustained SLO breach :meth:`~FleetRouter.failover` the shard.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.plan_cache import PlanCache
from repro.errors import FleetError
from repro.obs.attribution import top_offenders
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.runtime.lock_order import checked_lock
from repro.runtime.faults import (
    DEGRADE_END,
    DEGRADE_START,
    GRAY_END,
    GRAY_START,
    SOC_CRASH,
    SOC_REJOIN,
)
from repro.serve.admission import ADMIT, REJECT
from repro.serve.placement import EpochMemo
from repro.serve.tenant import (
    COMPLETED,
    FAILED,
    PENDING,
    REJECTED,
    RUNNING,
    TenantSpec,
    WindowSample,
)
from repro.fleet.chaos import ChaosInjector, ChaosSchedule, DegradeSpec
from repro.fleet.health import (
    CLOSED,
    DEAD,
    HALF_OPEN,
    HEALTHY,
    RECOVERING,
    SHARD_STATE_CODES,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
)
from repro.fleet.metrics import (
    FleetReport,
    FleetTenantMetrics,
    surviving_p95,
    surviving_p95_slowdown,
)
from repro.fleet.shard import ShardSpec, SoCShard
from repro.fleet.tenant import SHED, FleetTenant
from repro.soc.interference import ExternalLoad
from repro.soc.platforms import get_platform


@dataclass
class FleetConfig:
    """Knobs for one fleet run."""

    max_ticks: int = 128
    max_impact_ratio: float = 2.5
    max_partition_classes: Optional[int] = 1
    #: Passed through to each shard's admission controller: price the
    #: impact ceiling against incumbents' total predicted slowdown
    #: instead of the newcomer's increment alone.
    cumulative_impact: bool = False
    reschedule: bool = True
    #: Ticks a tenant may wait in the fleet backlog before rejection.
    backlog_patience: int = 24
    #: Arrivals that may wait at once: an arrival no shard admits is
    #: rejected when this many wait (None: patience bounds the wait).
    queue_capacity: Optional[int] = None
    #: Master switch: with failover off, dead shards strand their
    #: tenants (the baseline the soak's strict-improvement test beats).
    failover: bool = True
    health: HealthConfig = field(default_factory=HealthConfig)
    #: Per-window interference blame decomposition on every shard
    #: (:mod:`repro.obs.attribution`).  Off by default; the report only
    #: grows an ``attribution`` key when on, so default bytes are
    #: unchanged.
    attribution: bool = False

    def __post_init__(self) -> None:
        if self.max_ticks < 1:
            raise FleetError("max_ticks must be >= 1")
        if self.backlog_patience < 1:
            raise FleetError("backlog_patience must be >= 1")
        if self.queue_capacity is not None and self.queue_capacity < 0:
            raise FleetError("queue_capacity must be >= 0")


class FleetRouter:
    """Serve streaming tenants across a fleet of virtual SoC shards."""

    def __init__(
        self,
        shard_specs: Sequence[ShardSpec],
        seed: int = 0,
        config: Optional[FleetConfig] = None,
        chaos: Optional[ChaosSchedule] = None,
    ):
        if not shard_specs:
            raise FleetError("a fleet needs at least one shard")
        names = [spec.name for spec in shard_specs]
        if len(set(names)) != len(names):
            raise FleetError(f"duplicate shard names in {names}")
        self.seed = seed
        self.config = config or FleetConfig()
        self.chaos = ChaosInjector(chaos or ChaosSchedule())
        schedule = self.chaos.schedule
        for spec in (*schedule.crashes, *schedule.grays,
                     *schedule.degradations):
            if spec.shard not in names:
                raise FleetError(
                    f"chaos schedule names unknown shard {spec.shard!r}"
                )

        # Shards with the same (platform_name, platform_seed) share one
        # platform object and one plan cache: profiling an application
        # once serves every identical device, exactly like a fleet of
        # phones sharing one offline-profiled model.
        platforms: Dict[Tuple[str, int], object] = {}
        caches: Dict[Tuple[str, int], PlanCache] = {}
        self.shards: List[SoCShard] = []
        for index, spec in enumerate(shard_specs):
            key = (spec.platform_name, spec.platform_seed)
            if key not in platforms:
                platforms[key] = get_platform(
                    spec.platform_name, seed=spec.platform_seed
                )
                caches[key] = PlanCache(platforms[key])
            self.shards.append(SoCShard(
                index, spec, platforms[key], caches[key], self.config,
            ))
        self.by_name = {shard.name: shard for shard in self.shards}
        self._caches = list(caches.values())

        self.monitor = HealthMonitor(self.config.health)
        self.breakers: Dict[str, CircuitBreaker] = {}
        for shard in self.shards:
            self.monitor.register(shard.name)
            self.breakers[shard.name] = CircuitBreaker(
                shard.name, seed=seed * 1_000 + shard.index,
            )

        self.tenants: Dict[str, FleetTenant] = {}
        #: The tenants not yet terminal, by arrival: what the per-tick
        #: questions (drained? backlog depth?) walk instead of every
        #: tenant ever seen.  Terminal states are absorbing, so
        #: _drained prunes it once per tick.
        self._open: Dict[str, FleetTenant] = {}
        self.timeline: List[Dict[str, object]] = []
        self.ticks_executed = 0

        self._inbox: Deque[TenantSpec] = deque()
        self._inbox_lock = checked_lock("fleet.inbox-lock")
        self._backlog: List[str] = []
        self._arrival_counter = 0
        #: Pricing key -> ranked admitting shards, for one state of the
        #: fleet's placements and breakers (see choose_shard).
        self._choices = EpochMemo()

        #: Running sum of the harvested windows' attributed blame (the
        #: per-tick ``blame.attributed_total`` series; attribution on).
        self._attributed_total = 0.0

        #: Lifecycle: "new" -> "open" (open_stepped) -> "closed"
        #: (close_stepped); nothing reopens a closed fleet.
        self._state = "new"
        #: Every served window, in harvest order (shard index, then
        #: that server's timeline order): the rows the shard servers
        #: wrote, which the report and the open-loop traffic driver
        #: read.  Kept out of the fleet timeline so the serialized
        #: report does not balloon with one entry per window.
        self.window_log: List[WindowSample] = []

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def submit(self, spec: TenantSpec) -> None:
        """Queue one job for fleet placement; it enters the backlog on
        the next tick (submissions made between ticks by the stepping
        thread keep the run deterministic)."""
        if self._state == "closed":
            raise FleetError(
                f"fleet has drained; cannot submit {spec.name!r}"
            )
        with self._inbox_lock:
            if spec.name in self.tenants or any(
                    pending.name == spec.name for pending in self._inbox):
                raise FleetError(
                    f"tenant name {spec.name!r} already submitted"
                )
            self._inbox.append(spec)

    # ------------------------------------------------------------------
    # Stepping: the caller owns the clock
    # ------------------------------------------------------------------
    def open_stepped(self) -> None:
        """Boot the shards for ticking (once per fleet): the caller
        owns the clock and calls :meth:`step`.  Submissions may keep
        arriving between ticks, whether or not the fleet is keeping up
        - which is what the open-loop traffic driver does."""
        if self._state != "new":
            raise FleetError("fleet already started")
        self._state = "open"
        reg = metrics()
        if reg.enabled:
            for shard in self.shards:
                reg.gauge(f"fleet.shard_state.{shard.name}",
                          float(SHARD_STATE_CODES[HEALTHY]))
        for shard in self.shards:
            shard.boot()

    def step(self, tick: int) -> bool:
        """Execute one fleet tick; returns True when the fleet is
        drained (empty inbox, every tenant terminal)."""
        if self._state != "open":
            raise FleetError("step() requires open_stepped()")
        self._tick(tick)
        self.ticks_executed += 1
        return self._drained()

    def close_stepped(self, detail: Optional[str] = None) -> FleetReport:
        """Close the fleet: settle non-terminal tenants (``detail``
        becomes the status detail of those still placed), close the
        shards, and return the report."""
        if self._state != "open":
            raise FleetError("close_stepped() requires open_stepped()")
        self._state = "closed"
        self._close_out(detail)
        return self.report()

    def report(self) -> FleetReport:
        """The (deterministic) fleet report for the run so far."""
        served = Counter(row.shard for row in self.window_log)
        shards: Dict[str, Dict[str, object]] = {}
        for shard in self.shards:
            shards[shard.name] = {
                "state": self.monitor.state(shard.name),
                "breaker": self.breakers[shard.name].state,
                "generation": shard.generation,
                "windows_served": served[shard.name],
            }
        cache_stats = {key: sum(cache.stats()[key] for cache in self._caches)
                       for key in self._caches[0].stats()}
        attribution = None
        if self.config.attribution:
            blames = [row.blame for row in self.window_log
                      if row.blame is not None]
            attribution = {
                "windows": len(blames),
                "attributed_total": round(self._attributed_total, 9),
                "top_offenders": top_offenders(blames, 10),
            }
        return FleetReport(
            seed=self.seed,
            ticks=self.ticks_executed,
            n_shards=len(self.shards),
            failover_enabled=self.config.failover,
            tenants={
                name: FleetTenantMetrics.from_tenant(tenant)
                for name, tenant in self.tenants.items()
            },
            shards=shards,
            timeline=list(self.timeline),
            chaos_events=list(self.chaos.events),
            surviving_p95_s=surviving_p95(self.tenants),
            surviving_p95_slowdown=surviving_p95_slowdown(
                self.tenants),
            plan_cache=cache_stats,
            attribution=attribution,
        )

    # ------------------------------------------------------------------
    # The fleet tick (runs on the stepping thread; owns all fleet state)
    # ------------------------------------------------------------------
    def _tick(self, tick: int) -> None:
        with tracer().span("fleet.tick", "fleet", tick=tick):
            self._apply_chaos(tick)
            self._place_pending(tick)
            self._step_shards(tick)
            self._harvest(tick)
            self._assess_health(tick)
            self._emit_series(tick)

    def _emit_series(self, tick: int) -> None:
        """Per-tick time series: shard states, backlog, blame totals."""
        reg = metrics()
        if not reg.enabled:
            return
        for shard in self.shards:
            reg.series_point(
                f"fleet.shard_state.{shard.name}", tick,
                float(SHARD_STATE_CODES[self.monitor.state(shard.name)]),
            )
        reg.series_point("fleet.backlog_depth", tick,
                         float(len(self._backlog)))
        if self.config.attribution:
            reg.series_point("blame.attributed_total", tick,
                             self._attributed_total)

    def _drained(self) -> bool:
        with self._inbox_lock:
            pending = len(self._inbox)
        self._open = {name: tenant for name, tenant in self._open.items()
                      if not tenant.done}
        return not pending and not self._open

    @property
    def pending_count(self) -> int:
        """Tenants waiting for a shard (PENDING): the backlog depth the
        open-loop driver samples every tick."""
        return sum(1 for tenant in self._open.values()
                   if tenant.status == PENDING)

    def _close_out(self, detail: Optional[str]) -> None:
        """Terminal states for whatever the last tick left behind;
        ``detail`` is what :meth:`close_stepped` was given."""
        with self._inbox_lock:
            leftovers = list(self._inbox)
            self._inbox.clear()
        for spec in leftovers:
            tenant = FleetTenant(
                spec=spec, arrival=self._arrival_counter,
                status=REJECTED,
                status_detail="fleet stopped before placement",
            )
            self._arrival_counter += 1
            self.tenants[spec.name] = tenant
        for tenant in self.tenants.values():
            if tenant.done:
                continue
            if tenant.status == PENDING:
                tenant.status = REJECTED
                tenant.status_detail = (
                    "still in the fleet backlog when the fleet drained"
                )
            else:
                tenant.status = FAILED
                tenant.status_detail = (
                    detail or "tick budget exhausted before completion"
                )
        for shard in self.shards:
            if shard.alive:
                shard.close()

    # ------------------------------------------------------------------
    # Event spine
    # ------------------------------------------------------------------
    #: fleet timeline event -> metric counter name.
    _FLEET_COUNTERS = {
        "place": "fleet.placements",
        "migrate": "fleet.migrations",
        "displace": "fleet.displacements",
        "failover": "fleet.failovers",
        "shed": "fleet.shed",
        "breaker": "breaker.transitions",
        "reject": "fleet.rejects",
    }

    def _event(self, tick: int, event: str, **extra: object) -> None:
        entry: Dict[str, object] = {"tick": tick, "event": event}
        entry.update(extra)
        self.timeline.append(entry)
        # Mirror into the observability spine (all on the stepping
        # thread, so emission order is a function of the seed).
        track = (f"tenant:{entry['tenant']}" if "tenant" in entry
                 else f"shard:{entry.get('shard', 'fleet')}")
        trc = tracer()
        if trc.enabled:
            trc.instant(f"fleet.{event}", "fleet", track=track, **entry)
        reg = metrics()
        if reg.enabled:
            counter = self._FLEET_COUNTERS.get(event)
            if counter is not None:
                reg.counter(counter)
            if event == "shard_state":
                reg.gauge(
                    f"fleet.shard_state.{entry['shard']}",
                    float(SHARD_STATE_CODES[str(entry['to'])]),
                )

    # ------------------------------------------------------------------
    # Phase 1: chaos
    # ------------------------------------------------------------------
    def _apply_chaos(self, tick: int) -> None:
        for crash in self.chaos.crashes_at(tick):
            shard = self.by_name[crash.shard]
            if not shard.alive:
                continue
            shard.close(detail=f"SoC crashed at fleet tick {tick}")
            self.chaos.record(
                tick, SOC_CRASH, shard.name,
                detail=("rejoins at tick "
                        f"{crash.rejoin_tick}" if crash.rejoin_tick
                        is not None else "permanent"),
            )
        for rejoin in self.chaos.rejoins_at(tick):
            shard = self.by_name[rejoin.shard]
            if shard.alive:
                continue
            shard.boot()
            self.chaos.record(tick, SOC_REJOIN, shard.name,
                              detail=f"generation {shard.generation}")
            # A degradation that began before this tick and is still on
            # follows the shard into its new generation (one starting
            # now is handed over below, with the others starting now).
            for degrade in self.chaos.schedule.degradations:
                if (degrade.shard == shard.name
                        and degrade.start_tick < tick
                        and (degrade.end_tick is None
                             or tick < degrade.end_tick)):
                    self._degrade(shard, degrade)
        for gray in self.chaos.gray_edges_at(tick):
            kind = GRAY_START if gray.start_tick == tick else GRAY_END
            self.chaos.record(tick, kind, gray.shard,
                              detail=f"[{gray.start_tick}, "
                                     f"{gray.end_tick})")
        for shard in self.shards:
            shard.gray = (shard.alive
                          and self.chaos.gray_active(shard.name, tick))
        for degrade in self.chaos.degradations_at(tick):
            shard = self.by_name[degrade.shard]
            if shard.alive:
                self._degrade(shard, degrade)
            self.chaos.record(
                tick, DEGRADE_START, degrade.shard,
                detail=f"busy {sorted(degrade.busy)} "
                       f"+{degrade.demand_gbps:g} GB/s",
            )
        for degrade in self.chaos.degrade_ends_at(tick):
            self.chaos.record(tick, DEGRADE_END, degrade.shard)

    @staticmethod
    def _degrade(shard: SoCShard, degrade: DegradeSpec) -> None:
        """Hand a degradation to the shard's live server as a drift."""
        shard.server.inject_drift(
            ExternalLoad(busy=dict(degrade.busy),
                         demand_gbps=degrade.demand_gbps),
            degrade.end_tick)

    # ------------------------------------------------------------------
    # Phase 2: placement
    # ------------------------------------------------------------------
    def tenants_on(self, shard_name: str) -> List[FleetTenant]:
        """Live tenants currently placed on a shard, by arrival."""
        out = [t for t in self.tenants.values()
               if t.shard == shard_name and t.status == RUNNING]
        out.sort(key=lambda t: t.arrival)
        return out

    def choose_shard(
        self, spec: TenantSpec,
    ) -> Optional[Tuple[SoCShard, object]]:
        """The placement decision: admit where the cached interference
        tables predict least impact on incumbents, then least predicted
        latency, then least load; shard index breaks remaining ties.

        A shard's verdict depends on a tenant through its pricing key
        alone (:meth:`PipelineServer.price`), so the *choice* - the shards
        that are alive, behind a breaker that allows placement and
        admit the key, ranked as above - is a fact of the fleet's
        placements: it is ranked once and read for as long as no
        shard's (generation, placement epoch) and no breaker's gate
        moved, which is looked at here, on every call.  Only what is
        the tenant's own is asked per tenant: a shard remembers every
        tenant it hosted within a generation, so a migrating tenant
        takes the best-ranked shard that does not know it.
        """
        # One breaker per shard, registered in shard order.
        fleet = tuple([
            (shard.generation, server.placement.epoch,
             breaker.allows_placement())
            if (server := shard.server) is not None else None
            for shard, breaker in zip(self.shards, self.breakers.values())
        ])
        ranking = self._choices.lookup(fleet, spec.pricing_key)
        if ranking is None:
            ranking = []
            for shard, state in zip(self.shards, fleet):
                if state is None or not state[2]:
                    continue
                decision = shard.server.price(spec)
                if decision.action == ADMIT:
                    ranking.append((
                        max(decision.predicted_impact.values(),
                            default=1.0),
                        decision.predicted_latency_s,
                        len(shard.server.placement), shard.index,
                        shard, decision,
                    ))
            ranking.sort()  # never reaches the shard: indices differ
            self._choices.store(fleet, spec.pricing_key, ranking)
        for *_, shard, decision in ranking:
            if not shard.server.knows_tenant(spec.name):
                return shard, decision
        return None

    def commit_placement(self, tenant: FleetTenant, shard: SoCShard,
                         tick: int, kind: str,
                         detail: str = "") -> None:
        """Record a successful shard admission in fleet state."""
        tenant.place(shard.name)
        tenant.status_detail = detail or f"placed on {shard.name}"
        # The plan's isolated prediction for the schedule the shard
        # deployed: the placement's contention-free reference latency.
        record = shard.server.records[tenant.name]
        isolated = record.plan.isolated_prediction(record.schedule)
        self._event(tick, kind, tenant=tenant.name, shard=shard.name,
                    windows_remaining=tenant.windows_remaining,
                    isolated_s=round(isolated, 9),
                    **({"detail": detail} if detail else {}))

    def _place_pending(self, tick: int) -> None:
        while True:
            with self._inbox_lock:
                if not self._inbox:
                    break
                spec = self._inbox.popleft()
            tenant = FleetTenant(spec=spec,
                                 arrival=self._arrival_counter,
                                 backlog_since=tick)
            self._arrival_counter += 1
            self.tenants[spec.name] = tenant
            self._open[spec.name] = tenant
            self._backlog.append(spec.name)
        capacity = self.config.queue_capacity
        waiting = 0  # tenants this pass left in the backlog
        for name in list(self._backlog):
            tenant = self.tenants[name]
            if tenant.status != PENDING:
                # A same-tick harvest settled the tenant after it was
                # displaced (a shard can evict a tenant and still
                # finish its already-simulated window in one tick);
                # the backlog entry is stale.
                self._backlog.remove(name)
                continue
            if tenant.windows_remaining < 1:
                tenant.status = COMPLETED
                tenant.status_detail = (
                    "every window was served before re-placement"
                )
                self._backlog.remove(name)
                self._event(tick, "complete", tenant=name,
                            shard=tenant.shard_history[-1])
                continue
            spec = tenant.pending_spec()
            choice = self.choose_shard(spec)
            if choice is not None:
                shard, decision = choice
                shard.server.admit(spec, tick, decision)
                kind = "migrate" if tenant.shard_history else "place"
                self.commit_placement(tenant, shard, tick, kind)
                self._backlog.remove(name)
            elif (capacity is not None and not tenant.shard_history
                  and tenant.backlog_since == tick):
                # A bounded backlog is a front door: a new arrival waits
                # only if there is room and a live shard could ever
                # take it (its verdict is QUEUE, not REJECT).
                verdicts = [(shard.name, shard.server.price(spec))
                            for shard in self.shards if shard.alive]
                refusals = "; ".join(f"{shard}: {verdict.reason}"
                                     for shard, verdict in verdicts)
                if waiting >= capacity:
                    self._reject(tick, tenant,
                                 f"no shard admits the tenant now "
                                 f"({refusals}) and the backlog is full "
                                 f"({waiting}/{capacity})")
                elif verdicts and all(verdict.action == REJECT
                                      for _, verdict in verdicts):
                    self._reject(tick, tenant, "no shard can ever "
                                               f"admit the tenant "
                                               f"({refusals})")
                else:
                    waiting += 1
            elif (tenant.backlog_since is not None
                  and tick - tenant.backlog_since
                  >= self.config.backlog_patience):
                self._reject(tick, tenant,
                             f"no shard could place the tenant within "
                             f"{self.config.backlog_patience} ticks of "
                             "backlog")
            else:
                waiting += 1

    def _reject(self, tick: int, tenant: FleetTenant, reason: str) -> None:
        tenant.status = REJECTED
        tenant.status_detail = reason
        self._event(tick, "reject", tenant=tenant.name, reason=reason)
        self._backlog.remove(tenant.name)

    # ------------------------------------------------------------------
    # Phase 3+4: step and harvest
    # ------------------------------------------------------------------
    def _step_shards(self, tick: int) -> None:
        for shard in self.shards:
            if shard.alive:
                shard.step(tick)

    def _harvest(self, tick: int) -> None:
        for shard in self.shards:
            for event in shard.new_events():
                self._absorb(shard, tick, event)

    def _absorb(self, shard: SoCShard, tick: int,
                event: Dict[str, object]) -> None:
        kind = str(event["event"])
        name = str(event["tenant"])
        tenant = self.tenants.get(name)
        if tenant is None:
            raise FleetError(
                f"shard {shard.name!r} reported unknown tenant {name!r}"
            )
        if kind == "window":
            # A tenant serves one window per tick, so the row this
            # event announced is the last of its record's history.
            row = shard.server.records[name].history[-1]
            tenant.windows.append(row)
            self.window_log.append(row)
            self.monitor.note_window(shard.name, name, row.latency_s)
            if tenant.shard != shard.name:
                # Evicted earlier in this batch, after the window was
                # simulated: its ratio counts, but a baseline must not
                # outlive the residency (a later generation of this
                # shard may host the tenant again).
                self.monitor.forget_tenant(shard.name, name)
            if row.blame is not None:
                self._attributed_total += row.blame.attributed
        elif kind == "complete":
            tenant.status = COMPLETED
            tenant.shard = None
            tenant.status_detail = (
                f"completed on {shard.name}: served "
                f"{tenant.windows_served}/{tenant.spec.windows} windows"
                f" across {len(tenant.shard_history)} shard(s)"
            )
            self.monitor.forget_tenant(shard.name, name)
            self._event(tick, "complete", tenant=name, shard=shard.name)
        elif kind == "reschedule":
            tenant.reschedules += 1
        elif kind == "evict":
            # Shard-level contention eviction: the fleet turns a local
            # eviction into a migration opportunity instead of a loss.
            if tenant.status == RUNNING and tenant.shard == shard.name:
                tenant.status = PENDING
                tenant.shard = None
                tenant.backlog_since = tick
                tenant.status_detail = (
                    f"displaced from {shard.name} by contention eviction"
                )
                self.monitor.forget_tenant(shard.name, name)
                self._backlog.append(name)
                self._event(tick, "displace", tenant=name,
                            shard=shard.name,
                            reason=str(event.get("beneficiary", "")))
        elif kind == "fail":
            tenant.status = FAILED
            tenant.shard = None
            tenant.status_detail = str(event.get("reason", ""))
            self.monitor.forget_tenant(shard.name, name)
            self._event(tick, "fail", tenant=name, shard=shard.name,
                        reason=tenant.status_detail)
        # "admit"/"withdraw"/"hold": fleet state was
        # already updated by the actor that caused them.

    # ------------------------------------------------------------------
    # Phase 5: health, breakers, failover
    # ------------------------------------------------------------------
    def _assess_health(self, tick: int) -> None:
        for shard in self.shards:
            breaker = self.breakers[shard.name]
            transition = self.monitor.assess(
                shard.name, beats=shard.beats,
                crashed=not shard.alive,
            )
            if transition is not None:
                self._event(tick, "shard_state", shard=shard.name,
                            frm=transition[0], to=transition[1])
            health = self.monitor.health(shard.name)

            newly_dead = (transition is not None
                          and transition[1] == DEAD)
            if newly_dead:
                trip = breaker.trip(tick)
                if trip is not None:
                    self._event(tick, "breaker", shard=shard.name,
                                frm=trip[0], to=trip[1])
                cause = (f"shard {shard.name} dead at tick {tick} "
                         + ("(crashed)" if not shard.alive
                            else "(heartbeat lost)"))
                if self.config.failover:
                    self.failover(shard, tick, cause)
                elif not shard.alive:
                    self._strand_tenants(shard, tick, cause)

            slo = self.monitor.slo_breached(shard.name)
            if slo and breaker.state == CLOSED and not newly_dead:
                trip = breaker.trip(tick)
                if trip is not None:
                    self._event(tick, "breaker", shard=shard.name,
                                frm=trip[0], to=trip[1])
                if self.config.failover:
                    cause = (f"sustained SLO breach on {shard.name} "
                             f"at tick {tick}")
                    self.failover(shard, tick, cause)
                    self.monitor.reset_slo(shard.name)

            beating = shard.alive and health.beat_seen
            advance = breaker.advance(tick, beating)
            if advance is not None:
                self._event(tick, "breaker", shard=shard.name,
                            frm=advance[0], to=advance[1])
                if (advance == (HALF_OPEN, CLOSED)
                        and self.monitor.state(shard.name)
                        == RECOVERING):
                    self.monitor.set_state(shard.name, HEALTHY)
                    self._event(tick, "shard_state", shard=shard.name,
                                frm=RECOVERING, to=HEALTHY)

    def failover(self, shard: SoCShard, tick: int, cause: str) -> None:
        """Drain ``shard`` and re-admit its tenants fleet-wide, or shed.

        Every live tenant is pulled off the shard - withdrawn from a
        still-live server, or simply adopted when the server crashed
        under it - and the displaced batch, highest priority first
        (ties: earliest arrival), is placed through the regular
        admission path (:meth:`choose_shard` prices,
        :meth:`PipelineServer.admit` deploys).  Placement is atomic per
        attempt: if any tenant cannot land, the attempt's placements are
        rescinded, the lowest-priority tenant (ties: latest arrival) is
        shed, and the smaller batch retries - there is no state where
        half a failover happened.
        """
        batch = self.tenants_on(shard.name)
        if not batch:
            return
        for tenant in batch:
            if shard.alive:
                shard.server.withdraw(tenant.name,
                                      f"fleet failover: {cause}", tick)
            self.monitor.forget_tenant(shard.name, tenant.name)
            tenant.shard = None
            tenant.status = PENDING
            tenant.status_detail = f"displaced by failover: {cause}"
        self._event(tick, "failover", shard=shard.name, cause=cause,
                    displaced=len(batch))
        batch.sort(key=lambda t: (-t.priority, t.arrival))
        while batch:
            placed: List[Tuple[FleetTenant, SoCShard]] = []
            for tenant in batch:
                spec = tenant.pending_spec()
                choice = self.choose_shard(spec)
                if choice is None:
                    break
                target, decision = choice
                target.server.admit(spec, tick, decision)
                placed.append((tenant, target))
            else:
                for tenant, target in placed:
                    self.commit_placement(tenant, target, tick, "migrate",
                                          detail=f"failover: {cause}")
                return
            for tenant, target in placed:
                target.server.rescind(tenant.name)
            victim = min(batch, key=lambda t: (t.priority, -t.arrival))
            batch.remove(victim)
            victim.status = SHED
            victim.status_detail = (
                f"shed at tick {tick}: fleet could not absorb the "
                f"failover batch ({cause})"
            )
            self._event(tick, "shed", tenant=victim.name,
                        priority=victim.priority, cause=cause)

    def _strand_tenants(self, shard: SoCShard, tick: int,
                        cause: str) -> None:
        """Failover disabled: a dead shard's tenants are lost."""
        for tenant in self.tenants_on(shard.name):
            tenant.status = FAILED
            tenant.shard = None
            tenant.status_detail = f"{cause}; failover disabled"
            self._event(tick, "fail", tenant=tenant.name,
                        shard=shard.name, reason=tenant.status_detail)

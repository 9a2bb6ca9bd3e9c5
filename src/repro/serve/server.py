"""The multi-tenant pipeline server: the caller owns the clock.

Architecture (deliberately boring, for determinism's sake):

* **No thread and no front door of its own.**  The server is one
  shard of a :class:`~repro.fleet.router.FleetRouter`: the router
  prices a tenant here (:meth:`PipelineServer.price`), deploys the
  verdict (:meth:`PipelineServer.admit`) and owns the one wait queue,
  its backlog.  Whoever steps the router steps the server
  (:meth:`PipelineServer.step`) and owns every mutable serving
  structure - the tenant registry and the placement map.  ``repro
  serve`` and ``repro submit`` are one-shard fleets.
* **Virtual time only.**  Tenant windows execute on the discrete-event
  simulator; a *tick* runs one window for every running tenant, and a
  run is bounded by the caller's tick count, never by a wall clock, so
  the entire run - admissions, windows, reschedules, evictions, the
  final report - is a pure function of (platform, specs, drifts),
  which is what makes the soak test's byte-determinism assertion
  possible.
* **A generation, not a service.**  A server is one generation of a
  :class:`~repro.fleet.shard.SoCShard`: built ready to step, with the
  fleet's config and the shard's plan cache, settled by :meth:`close`
  when the shard crashes or the fleet drains, and never reopened.

Per tick the server serves one window per running tenant - each under
the :class:`~repro.soc.interference.ExternalLoad` formed by its
co-tenants' offered loads plus any injected drift - and then lets the
online rescheduler react to drifted measurements.

State that outlives the tick is not the server's, nor a tenant's: the
paper's BT-Implementer builds a pipeline once per deployed schedule, so
the shared plan cache hands out one
:class:`~repro.core.plan_cache.Deployment` per (application, schedule) -
the simulator executor, the load it offers co-tenants, and the window
results it has produced.  A window is a pure function of (deployment,
external load, window size), so it is simulated once, for whichever
tenant on whichever same-platform shard asks first; a live placement
only holds a reference to its deployment.

What the server does keep is derived from its *placement* and lives
exactly as long.  The placement map counts its changes (``epoch``,
bumped by ``assign`` / ``release``: every deploy, release, SWITCH,
withdraw, rescind, failure and eviction), and two
:class:`~repro.serve.placement.EpochMemo` tables hang on it: the
admission verdicts of :meth:`PipelineServer.price` and each live
tenant's co-load view.  Work fires on the event that changed its input,
not on the tick.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.core.plan_cache import Deployment, PlanCache
from repro.errors import ReproError, ServeError
from repro.obs import attribution
from repro.obs.metrics import metrics
from repro.obs.spans import Span
from repro.obs.tracer import tracer
from repro.runtime.simulator import SimWindow, simulate_batch
from repro.serve.admission import ADMIT, AdmissionController
from repro.serve.placement import EpochMemo, PlacementMap
from repro.serve.rescheduler import EVICT, SWITCH, OnlineRescheduler
from repro.serve.tenant import (
    COMPLETED,
    EVICTED,
    FAILED,
    RUNNING,
    TenantRecord,
    TenantSpec,
    WindowSample,
)
from repro.soc.interference import ExternalLoad
from repro.soc.platform import Platform

#: Consecutive drifted windows without a viable reschedule before the
#: eviction fallback fires.
PATIENCE = 2


class PipelineServer:
    """Serve streaming pipeline tenants on one shared virtual SoC.

    ``config`` is the fleet's :class:`~repro.fleet.router.FleetConfig`:
    the server reads its five serving knobs (``max_impact_ratio``,
    ``max_partition_classes``, ``cumulative_impact``, ``reschedule``,
    ``attribution``) off it.  ``plan_cache`` is the one the shard's
    platform shares; ``shard`` labels every served window.
    """

    def __init__(self, platform: Platform, config, plan_cache: PlanCache,
                 shard: str):
        self.platform = platform
        self.shard = shard
        self.config = config
        self.plan_cache = plan_cache
        self.placement = PlacementMap(platform.schedulable_classes())
        self.admission = AdmissionController(
            platform,
            self.plan_cache,
            max_impact_ratio=self.config.max_impact_ratio,
            max_partition_classes=self.config.max_partition_classes,
            cumulative_impact=self.config.cumulative_impact,
        )
        self.rescheduler = OnlineRescheduler(platform)
        self.records: Dict[str, TenantRecord] = {}
        #: RUNNING tenants in admission order - exactly the tenants that
        #: hold a placement.  Kept in step with the placement map by
        #: _deploy/_release instead of being re-derived from ``records``
        #: on every read.
        self._live: Dict[str, TenantRecord] = {}
        #: Live tenant -> the deployment it is served on (fetched from
        #: the plan cache at the first tick that needs it; dropped by
        #: _release and by a reschedule SWITCH).  Holding it here keeps
        #: it alive whatever the cache's own bound evicts.
        self._deployments: Dict[str, Deployment] = {}
        #: Pricing key -> verdict, per placement epoch.
        self._verdicts = EpochMemo()
        #: Live tenant -> (sources, combined co-load), per (placement
        #: epoch, active drift indices).
        self._views = EpochMemo()
        self.timeline: List[Dict[str, object]] = []
        #: Tenant -> spans of its last served window, most recently
        #: served last.  The lists belong to remembered results shared
        #: across tenants: untagged, read-only (see :attr:`trace_spans`).
        self._last_spans: Dict[str, List[Span]] = {}

        #: Outside interference, in injection order: (load, end tick;
        #: None = open-ended).
        self._drifts: List[Tuple[ExternalLoad, Optional[int]]] = []
        self._patience: Dict[str, int] = {}
        self._admission_counter = 0

    def inject_drift(self, load: ExternalLoad,
                     end_tick: Optional[int]) -> None:
        """Serve every tenant under the outside ``load`` (a foreground
        app, another container: a chaos degradation) from the next
        :meth:`step` until ``end_tick`` (open-ended when None)."""
        self._drifts.append((load, end_tick))

    # ------------------------------------------------------------------
    # Stepping: the caller owns the clock
    # ------------------------------------------------------------------
    # A fleet drives many shards in lockstep from one tick; a thread per
    # shard would make cross-shard event order scheduler-dependent and
    # break byte-determinism.  So the server has no thread: the caller
    # calls step(tick) once per tick (always from the same thread) and
    # close() to settle terminal states.

    def step(self, tick: int) -> bool:
        """Run one tick under the caller's clock; True when drained."""
        self._tick(tick)
        return self._drained()

    def close(self, detail: Optional[str] = None) -> None:
        """Settle terminal states: every tenant still live fails with
        ``detail`` (e.g. ``"SoC crashed at fleet tick 8"``; by default,
        the tick budget ran out)."""
        for record in self.records.values():
            if record.done:
                continue
            self._release(record.name)
            record.status = FAILED
            record.status_detail = (
                detail or "tick budget exhausted before completion"
            )

    def try_admit(self, spec: TenantSpec, tick: int):
        """Synchronous admission.

        Evaluates ``spec`` against the current placement and running
        set; on ADMIT the tenant is deployed immediately and serves its
        first window on the next :meth:`step`.  QUEUE/REJECT decisions
        leave no record behind - the fleet router owns the backlog.
        Returns the :class:`AdmissionDecision` either way.
        """
        self._require_newcomer(spec)
        decision = self.price(spec)
        if decision.action == ADMIT:
            self.admit(spec, tick, decision)
        return decision

    def price(self, spec: TenantSpec):
        """The admission verdict on ``spec`` against the current
        placement: the one door to admission, for a fleet router
        ranking shards.

        A verdict depends on the tenant only through its
        :attr:`~TenantSpec.pricing_key` and on the shard only through
        its placement: one :meth:`AdmissionController.evaluate` per
        (placement epoch, pricing key), a read until the placement
        changes.
        """
        epoch = self.placement.epoch
        key = spec.pricing_key
        decision = self._verdicts.lookup(epoch, key)
        remembered = decision is not None
        if not remembered:
            decision = self.admission.evaluate(
                spec, self.placement, self._live)
            self._verdicts.store(epoch, key, decision)
        reg = metrics()
        if reg.enabled:
            reg.counter("admission.remembered" if remembered
                        else "admission.priced")
        return decision

    def admit(self, spec: TenantSpec, tick: int, decision) -> None:
        """Deploy an ADMIT ``decision`` the caller already holds - the
        second half of :meth:`try_admit`.

        The decision must be :meth:`price`'s for this shard's current
        placement: the fleet router prices a tenant on every shard and
        deploys the winner without asking again.
        """
        self._require_newcomer(spec)
        if decision.action != ADMIT:
            raise ServeError(
                f"cannot deploy a {decision.action!r} decision for "
                f"{spec.name!r}"
            )
        record = TenantRecord(spec=spec)
        self.records[spec.name] = record
        self._deploy(tick, record, decision)

    def _require_newcomer(self, spec: TenantSpec) -> None:
        if spec.name in self.records:
            raise ServeError(
                f"tenant name {spec.name!r} already known to this shard"
            )

    def withdraw(self, name: str, reason: str, tick: int) -> TenantRecord:
        """Remove a live tenant: release its placement and mark it
        EVICTED with ``reason``.  The fleet failover drain - the
        tenant's remaining windows continue on another shard."""
        record = self.records.get(name)
        if record is None or record.done:
            raise ServeError(
                f"cannot withdraw {name!r}: not a live tenant"
            )
        if name in self._live:
            self._release(name)
        record.status = EVICTED
        record.status_detail = reason
        self._event(tick, "withdraw", name, reason=reason)
        return record

    def rescind(self, name: str) -> None:
        """Un-admit a tenant placed via :meth:`admit` this tick (the
        fleet rollback primitive): the placement is released and the
        record erased as if the admission never happened."""
        record = self.records.pop(name, None)
        if record is None:
            raise ServeError(f"cannot rescind {name!r}: unknown tenant")
        if name in self._live:
            self._release(name)
        self._patience.pop(name, None)

    def running_records(self) -> Dict[str, TenantRecord]:
        """Live RUNNING tenants in admission order (a snapshot)."""
        return dict(self._live)

    def knows_tenant(self, name: str) -> bool:
        """Whether this server generation has ever seen ``name``.

        Names are never recycled within a generation, so a fleet router
        must not re-place a tenant onto a shard that already knows it
        (a rejoined shard is a fresh generation and qualifies again).
        """
        return name in self.records

    # ------------------------------------------------------------------
    # The tick (runs on the stepping thread; owns all serving state)
    # ------------------------------------------------------------------
    def _drained(self) -> bool:
        # Every non-terminal record is RUNNING, in _live.
        return not self._live

    # -- one tick -------------------------------------------------------
    def _tick(self, tick: int) -> None:
        with tracer().span("serve.tick", "serve", tick=tick):
            self._serve_windows(tick)
        reg = metrics()
        if reg.enabled:  # how long a placement lives
            reg.gauge(f"serve.placement_epoch.{self.shard}",
                      float(self.placement.epoch))

    #: timeline event -> admission-metric counter name.
    _ADMISSION_COUNTERS = {
        "admit": "admission.admits",
        "reschedule": "serve.reschedules",
        "evict": "serve.evictions",
        "withdraw": "serve.withdrawals",
    }

    def _event(self, tick: int, event: str, tenant: str,
               **extra: object) -> None:
        entry: Dict[str, object] = {
            "tick": tick, "event": event, "tenant": tenant,
        }
        entry.update(extra)
        self.timeline.append(entry)
        # Mirror every timeline entry into the observability spine: an
        # instant on the tenant's trace track and the admission /
        # reschedule counters.  Both happen on the stepping thread, so
        # the emission order - and therefore an exported trace's bytes -
        # stays a function of the seed.
        trc = tracer()
        if trc.enabled:
            trc.instant(f"serve.{event}", "serve",
                        track=f"tenant:{tenant}", tick=tick,
                        tenant=tenant)
        reg = metrics()
        if reg.enabled:
            counter = self._ADMISSION_COUNTERS.get(event)
            if counter is not None:
                total = reg.counter(counter)
                # Cumulative per-tick series of every admission /
                # reschedule counter (bounded ring per series).
                reg.series_point(counter, tick, total or 0.0)
            if event == "window":
                reg.observe("serve.window_latency_s",
                            float(extra["latency_s"]))

    def _deploy(self, tick: int, record: TenantRecord, decision) -> None:
        assert decision.candidate is not None
        spec = record.spec
        plan = self.plan_cache.plan_for(spec.application)
        schedule = decision.candidate.schedule
        record.partition = self.placement.assign(
            spec.name, spec.application, schedule
        )
        record.plan = plan
        record.schedule = schedule
        record.status = RUNNING
        self._live[spec.name] = record
        record.status_detail = decision.reason
        record.admission_order = self._admission_counter
        self._admission_counter += 1
        self._patience[spec.name] = 0
        self._event(
            tick, "admit", spec.name,
            partition=record.partition,
            predicted_latency_s=round(decision.predicted_latency_s, 9),
        )

    def _release(self, name: str) -> None:
        """Free a tenant's PUs; the caller sets the status it leaves
        RUNNING for."""
        self.placement.release(name)
        del self._live[name]
        self._deployments.pop(name, None)

    # -- window serving -------------------------------------------------
    def _deployment_of(self, name: str,
                       record: TenantRecord) -> Deployment:
        """The deployment live tenant ``name`` is served on."""
        deployment = self._deployments.get(name)
        if deployment is None:
            assert record.schedule is not None
            deployment = self._deployments[name] = (
                self.plan_cache.deployment_for(
                    record.spec.application, record.schedule,
                )
            )
        return deployment

    def _co_load(self, name: str, active: Tuple[int, ...]) -> tuple:
        """``(sources, combined load)`` live tenant ``name`` is served
        under while the drifts indexed ``active`` are on.

        ``sources`` are the labelled per-source loads, ordered
        deterministically - co-tenants in admission order (the
        ``_live`` order), then the drifts in injection order - so the
        combined load *and* any blame decomposition built from the
        pairs are pure functions of the seeded run.  Read against the
        placement as it is *now*, rebuilt only when the placement or
        the active drifts moved; shared, read-only.
        """
        stamp = (self.placement.epoch, active)
        view = self._views.lookup(stamp, name)
        if view is None:
            sources: List[tuple] = [
                (other, self._deployment_of(other, record).offered)
                for other, record in self._live.items() if other != name
            ]
            sources += [(f"drift:{index}", self._drifts[index][0])
                        for index in active]
            view = (sources, ExternalLoad.combined(
                load for _, load in sources))
            self._views.store(stamp, name, view)
        return view

    def _serve_windows(self, tick: int) -> None:
        """Serve one window per running tenant.

        The batch is built tenant by tenant against the live placement:
        a tenant whose window cannot be built fails and leaves ``_live``
        mid-loop, so the tenants after it are served without its load
        and those before it with it.  Nothing that happens *after* the
        batch is built - a completion, a SWITCH, an eviction while the
        tick's windows are finished - reaches this tick's loads, which
        is what lets the whole tick run through :func:`simulate_batch`
        in one call.

        A window's simulation is a pure function of (deployment,
        external load, window size): the jitter is keyed by (platform,
        schedule, task, stage) and the server injects no faults.  So
        only windows their deployment has not served yet - for any
        tenant, on any shard sharing the plan cache - are simulated;
        the others cross the batch carrying the result the deployment
        remembers (``SimWindow.remembered``), which the batch reports
        to the tracer, tagged with this tenant, where the simulation
        would have - same ``_live`` order, same :meth:`_finish_window`,
        same report and trace bytes.
        """
        batch: List[tuple] = []
        active = tuple(index for index, (_, end) in enumerate(self._drifts)
                       if end is None or tick < end)
        # A snapshot: a tenant that fails here leaves _live mid-loop.
        for name, record in list(self._live.items()):
            try:
                sources, external = self._co_load(name, active)
                deployment = self._deployment_of(name, record)
                tasks = record.spec.window_tasks
                window = SimWindow(
                    deployment.executor, tasks, record_trace=True,
                    external_load=external, tenant=name,
                    remembered=deployment.remembered(external, tasks),
                )
            except ReproError as error:
                self._fail_tenant(tick, name, record, error)
                continue
            batch.append((name, record, sources, deployment, window))
        if not batch:
            return
        outcomes = simulate_batch(
            [window for *_, window in batch], collect_errors=True)
        for (name, record, sources, deployment, window), outcome in zip(
                batch, outcomes):
            external = window.external_load
            try:
                with tracer().span("serve.window", "serve",
                                   tenant=name, tick=tick,
                                   window=record.windows_done):
                    if outcome.error is not None:
                        raise outcome.error
                    if window.remembered is None:
                        deployment.remember(
                            external, window.n_tasks, outcome.result)
                    self._finish_window(tick, name, record, external,
                                        outcome.result, sources,
                                        deployment)
            except ReproError as error:
                self._fail_tenant(tick, name, record, error)

    def _fail_tenant(self, tick: int, name: str, record: TenantRecord,
                     error: ReproError) -> None:
        if name in self._live:
            self._release(name)
        record.status = FAILED
        record.status_detail = str(error)
        self._event(tick, "fail", name, reason=str(error))

    def _finish_window(self, tick: int, name: str,
                       record: TenantRecord,
                       external: ExternalLoad, result,
                       sources: List[tuple],
                       deployment: Deployment) -> None:
        measured = result.steady_interval_s
        # The reference is the schedule this window ran on, so it is
        # read here, before _react_to_drift may deploy another - once,
        # for the regime, the blame and every report above.
        isolated = record.plan.isolated_prediction(record.schedule)
        index = record.windows_done
        blame = None
        if self.config.attribution:
            blame = attribution.decompose(
                tenant=name,
                window_index=index,
                slowdown=measured / isolated,
                chunks=deployment.executor.attribution_inputs(),
                platform=self.platform,
                sources=sources,
            )
        row = WindowSample(
            tick=tick, tenant=name, window_index=index,
            measured_latency_s=measured, isolated_s=isolated,
            window_tasks=record.spec.window_tasks,
            regime=self.rescheduler.classify(record, measured, isolated),
            blame=blame, shard=self.shard,
        )
        record.history.append(row)
        self._event(tick, "window", name, window=index,
                    latency_s=row.latency_s, regime=row.regime)

        # A co-tenant served earlier in this tick's batch may have
        # evicted this one (_evict_for); its window was already
        # simulated, so it still counts, but there is no placement left
        # to release or to re-rank.
        evicted = record.status != RUNNING
        if record.windows_done >= record.spec.windows:
            if not evicted:
                self._release(name)
            record.status = COMPLETED
            record.status_detail = (
                f"served {record.windows_done} windows"
            )
            self._event(tick, "complete", name,
                        windows=record.windows_done)
            self._record_trace(record, result.spans)
            return
        self._record_trace(record, result.spans)
        if evicted:
            return

        if record.baseline_latency_s is None:
            # First window on this schedule: the drift reference point.
            record.baseline_latency_s = measured
            return
        if not self.config.reschedule:
            return
        if not self.rescheduler.drifted(record, measured):
            self._patience[name] = 0
            return
        self._react_to_drift(tick, name, record, external, measured)

    def _record_trace(self, record: TenantRecord,
                      spans: List[Span]) -> None:
        """Keep only each tenant's most recent window of spans."""
        self._last_spans.pop(record.name, None)
        self._last_spans[record.name] = spans

    @property
    def trace_spans(self) -> List[Span]:
        """Spans of every tenant's last served window (the multi-tenant
        Gantt input), most recently served tenant last - tenant-tagged
        copies, stamped here where they are read."""
        return [
            replace(span, tenant=name)
            for name, spans in self._last_spans.items() for span in spans
        ]

    # -- drift reaction -------------------------------------------------
    def _react_to_drift(self, tick: int, name: str,
                        record: TenantRecord,
                        external: ExternalLoad,
                        measured: float) -> None:
        action = self.rescheduler.rerank(
            record, external, self.placement.free_classes()
        )
        if action.kind == SWITCH:
            assert action.candidate is not None
            schedule = action.candidate.schedule
            record.partition = self.placement.reassign(
                name, record.spec.application, schedule
            )
            record.schedule = schedule
            self._deployments.pop(name, None)
            record.baseline_latency_s = None
            record.reschedules += 1
            self._patience[name] = 0
            self._event(
                tick, "reschedule", name,
                rank=action.candidate.rank,
                partition=record.partition,
                measured_s=round(measured, 9),
                predicted_s=round(action.predicted_latency_s, 9),
            )
            return
        self._patience[name] = self._patience.get(name, 0) + 1
        exhausted = self._patience[name] >= PATIENCE
        if action.kind == EVICT or exhausted:
            if self._evict_for(tick, record):
                self._patience[name] = 0
                return
        self._event(tick, "hold", name, reason=action.reason,
                    patience=self._patience[name])

    def _evict_for(self, tick: int, sufferer: TenantRecord) -> bool:
        """Eviction fallback: remove the lowest-priority running tenant
        strictly below the drifted tenant, freeing its PUs for the next
        re-rank.  Returns False when nobody qualifies (the sufferer is
        itself the lowest priority - it just has to cope)."""
        candidates = [
            record for record in self._live.values()
            if record.name != sufferer.name
            and record.priority < sufferer.priority
        ]
        if not candidates:
            return False
        victim = min(
            candidates,
            key=lambda r: (r.priority, -r.admission_order),
        )
        self._release(victim.name)
        victim.status = EVICTED
        victim.status_detail = (
            f"evicted at tick {tick} to relieve contention on "
            f"{sufferer.name!r} (priority {victim.priority} < "
            f"{sufferer.priority})"
        )
        self._event(tick, "evict", victim.name,
                    beneficiary=sufferer.name,
                    priority=victim.priority)
        return True

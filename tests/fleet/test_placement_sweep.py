"""Sweep oracle: epoch-priced backlog placement against per-tenant
pricing.

A shard prices a pricing key once per placement epoch
(``PipelineServer.price``) and the router ranks the admitting shards of
a key once per state of the fleet's placements and breakers
(``FleetRouter.choose_shard``); ``_place_pending`` deploys the winning
decision directly.  :func:`reference_place_pending` is the loop all of
that replaced - every backlog tenant re-priced on every shard, the
winner re-evaluated by ``try_admit`` - and runs with every host memo
off (``tests.memo_off``).  Driven over
the same backlog - duplicate and distinct pricing keys, a shard behind
an open breaker, a shard that already knows a migrating tenant - both
must write the same fleet and shard event logs, with the shipped arm
asking admission less often.
"""

import types

from repro.apps.synthetic import build_synthetic_application
from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.fleet.health import COOLDOWN_TICKS
from repro.fleet.tenant import FleetTenant
from repro.obs import capture
from repro.serve.admission import ADMIT, AdmissionController
from repro.serve.tenant import COMPLETED, PENDING, REJECTED, TenantSpec

from tests.memo_off import memos_off

TICKS = 12


def reference_place_pending(self, tick):
    """``_place_pending`` before the sweep (per-tenant pricing); run
    it with the memos off."""
    while True:
        with self._inbox_lock:
            if not self._inbox:
                break
            spec = self._inbox.popleft()
        tenant = FleetTenant(spec=spec, arrival=self._arrival_counter,
                             backlog_since=tick)
        self._arrival_counter += 1
        self.tenants[spec.name] = tenant
        self._open[spec.name] = tenant
        self._backlog.append(spec.name)
    for name in list(self._backlog):
        tenant = self.tenants[name]
        if tenant.status != PENDING:
            self._backlog.remove(name)
            continue
        if tenant.windows_remaining < 1:
            tenant.status = COMPLETED
            tenant.status_detail = (
                "every window was served before re-placement")
            self._backlog.remove(name)
            self._event(tick, "complete", tenant=name,
                        shard=tenant.shard_history[-1])
            continue
        choice = self.choose_shard(tenant.pending_spec())
        if choice is not None:
            shard, _ = choice
            decision = shard.server.try_admit(tenant.pending_spec(), tick)
            assert decision.action == ADMIT, decision
            kind = "migrate" if tenant.shard_history else "place"
            self.commit_placement(tenant, shard, tick, kind)
            self._backlog.remove(name)
        elif (tenant.backlog_since is not None
              and tick - tenant.backlog_since
              >= self.config.backlog_patience):
            tenant.status = REJECTED
            tenant.status_detail = (
                f"no shard could place the tenant within "
                f"{self.config.backlog_patience} ticks of backlog")
            self._event(tick, "reject", tenant=name,
                        reason=tenant.status_detail)
            self._backlog.remove(name)


def _arrivals():
    """tick -> specs.  Two applications, so most of the backlog shares
    a pricing key; required/preferred classes split the rest."""
    apps = [build_synthetic_application(seed=seed, stage_count=2)
            for seed in (11, 12)]
    waves = {0: 14, 3: 8, 6: 6}
    out, index = {}, 0
    for tick, count in waves.items():
        specs = []
        for _ in range(count):
            kwargs = {}
            if index % 5 == 1:
                kwargs["preferred_classes"] = {"gpu"}
            if index % 7 == 3:
                kwargs["required_classes"] = {"big"}
            specs.append(TenantSpec(
                name=f"t{index:02d}", application=apps[index % 2],
                priority=index % 3, windows=2 + index % 3,
                window_tasks=4, **kwargs,
            ))
            index += 1
        out[tick] = specs
    return out


def _drive(reference):
    router = FleetRouter(
        [ShardSpec(f"s{i}", platform_seed=7) for i in range(3)],
        seed=5,
        config=FleetConfig(
            max_ticks=TICKS, max_impact_ratio=1.25,
            cumulative_impact=True, max_partition_classes=1,
            backlog_patience=4, reschedule=False,
        ),
    )
    if reference:
        router._place_pending = types.MethodType(
            reference_place_pending, router)
    arrivals = _arrivals()
    router.open_stepped()
    for tick in range(TICKS):
        for spec in arrivals.get(tick, ()):
            router.submit(spec)
        if tick == 2:
            # s1 stops taking placements for a while (open breaker).
            assert router.breakers["s1"].trip(tick) is not None
        if tick == 4:
            # Displace a tenant from its shard into the backlog: the
            # shard still knows it, so it must be placed elsewhere.
            victim = router.tenants_on("s0")[0]
            router.by_name["s0"].server.withdraw(
                victim.name, "test displacement", tick)
            victim.status, victim.shard = PENDING, None
            victim.backlog_since = tick
            router._backlog.append(victim.name)
        router.step(tick)
    report = router.close_stepped()
    shard_logs = {shard.name: [s.timeline for s in shard.closed_servers]
                  for shard in router.shards}
    return router, report, shard_logs


def _counting(monkeypatch):
    calls = []
    original = AdmissionController.evaluate

    def evaluate(self, spec, *args, **kwargs):
        calls.append(spec.name)
        return original(self, spec, *args, **kwargs)

    monkeypatch.setattr(AdmissionController, "evaluate", evaluate)
    return calls


def test_sweep_writes_the_reference_event_log(monkeypatch):
    calls = _counting(monkeypatch)
    with capture() as cap:
        router, report, shard_logs = _drive(reference=False)
    swept_calls = len(calls)
    del calls[:]
    with memos_off(), capture() as ref_cap:
        ref_router, ref_report, ref_shard_logs = _drive(reference=True)
    reference_calls = len(calls)

    assert router.timeline == ref_router.timeline
    assert shard_logs == ref_shard_logs
    assert router.window_log == ref_router.window_log
    assert report.to_dict() == ref_report.to_dict()
    assert swept_calls < reference_calls
    # A plan look-up per real pricing; a verdict read off its epoch
    # makes none.
    hits = [run.metrics.snapshot()["counters"]["plan_cache.hits"]
            for run in (cap, ref_cap)]
    assert hits[0] < hits[1]

    # The run exercised what it claims to.
    counts = report.counts
    assert counts["place"] >= 10 and counts["reject"] >= 1
    assert counts.get("migrate", 0) >= 1
    migrated = [t for t in router.tenants.values() if t.migrations]
    assert all(t.shard_history[0] != t.shard_history[1]
               for t in migrated)
    placed_while_open = [
        e for e in router.timeline
        if e["event"] == "place" and e["shard"] == "s1"
        and 2 <= e["tick"] < 2 + COOLDOWN_TICKS
    ]
    assert placed_while_open == []


def test_a_verdict_is_dropped_when_its_shard_admits():
    """Two tenants with one pricing key and one free class: the second
    must see the shard as the first left it, not the cached verdict."""
    app = build_synthetic_application(seed=11, stage_count=2)
    router = FleetRouter(
        [ShardSpec("s0", platform_seed=7)],
        config=FleetConfig(max_ticks=4, max_impact_ratio=1e9,
                           cumulative_impact=True,
                           max_partition_classes=1, reschedule=False),
    )
    router.open_stepped()
    classes = router.shards[0].platform.schedulable_classes()
    names = [f"t{i}" for i in range(len(classes) + 1)]
    for name in names:
        router.submit(TenantSpec(name=name, application=app, windows=3,
                                 window_tasks=4))
    router.step(0)
    server = router.shards[0].server
    partitions = [server.records[n].partition for n in names[:-1]]
    assert len(frozenset().union(*partitions)) == len(classes)
    assert router.tenants[names[-1]].status == PENDING
    router.close_stepped()

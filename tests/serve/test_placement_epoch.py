"""One placement epoch per server: priced on the event, not on the clock.

``PlacementMap.epoch`` counts partition changes (bumped by ``assign``
and ``release`` only); admission verdicts (``PipelineServer.price``),
the incumbents' rows of a pricing and each live tenant's co-load view
are kept in ``EpochMemo`` tables under the epoch they were derived at.
The oracle is the same server with every host memo off
(``tests.memo_off``, a test-only switch - there is no production one):
every report, timeline, history and exported trace must come out
byte-identical either way, with strictly fewer pricings shipped.  Each
way the memo could be keyed too coarsely is a key-omission mutant of
``tests/mutation``.
"""

import json

import pytest

from repro.core.plan_cache import Deployment
from repro.errors import PipelineError, ServeError
from repro.obs import capture
from repro.runtime.simulator import SimulatedPipelineExecutor
from repro.serve.admission import ADMIT, QUEUE
from repro.serve.placement import EpochMemo, PlacementMap
from repro.serve.tenant import COMPLETED, EVICTED, FAILED, TenantSpec
from repro.soc.interference import ExternalLoad
from repro.traffic import SoakScenario

from tests.serve.conftest import (
    bare_server,
    both_ways,
    count_pricings,
    drifting_soak,
    fresh_verdict,
    one_shard_router,
    single_class_schedule,
)


# ----------------------------------------------------------------------
class TestTheEpoch:
    def test_assign_and_release_bump_it_and_nothing_else_does(
            self, platform, plan, app):
        pmap = PlacementMap(platform.schedulable_classes())
        assert pmap.epoch == 0 and len(pmap) == 0
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        assert pmap.epoch == 1 and len(pmap) == 1
        pmap.free_classes(), pmap.partitions, pmap.check()
        pmap.partition_of("a")
        assert pmap.epoch == 1
        with pytest.raises(ServeError):
            pmap.assign("b", app, single_class_schedule(plan, "big"))
        with pytest.raises(ServeError):
            pmap.release("nobody")
        assert pmap.epoch == 1              # a refused change is none
        pmap.release("a")
        assert pmap.epoch == 2 and len(pmap) == 0

    def test_a_reassign_is_both(self, platform, plan, app):
        pmap = PlacementMap(platform.schedulable_classes())
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        pmap.assign("b", app, single_class_schedule(plan, "gpu"))
        before = pmap.epoch
        # Same classes, another schedule object: still a new placement
        # (the incumbent's contention span is the schedule's).
        pmap.reassign("a", app, single_class_schedule(plan, "big"))
        assert pmap.epoch > before
        before, free = pmap.epoch, pmap.free_classes()
        with pytest.raises(ServeError, match="oversubscribe"):
            pmap.reassign("a", app, single_class_schedule(plan, "gpu"))
        # Rolled back to the very same placement; the epoch may only
        # have moved forward.
        assert pmap.partition_of("a") == frozenset({"big"})
        assert pmap.free_classes() == free
        assert pmap.epoch >= before

    def test_free_classes_track_every_change(self, platform, plan, app):
        pmap = PlacementMap(platform.schedulable_classes())
        everything = frozenset(platform.schedulable_classes())

        def scan():
            return everything - frozenset().union(
                *pmap.partitions.values())

        for step in (
            lambda: pmap.assign(
                "a", app, single_class_schedule(plan, "big")),
            lambda: pmap.assign(
                "b", app, single_class_schedule(plan, "gpu")),
            lambda: pmap.reassign(
                "a", app, single_class_schedule(plan, "medium")),
            lambda: pmap.release("b"),
            lambda: pmap.release("a"),
        ):
            step()
            assert pmap.free_classes() == scan()

    def test_a_memo_is_dropped_whole_when_its_stamp_moves(self):
        memo = EpochMemo()
        assert memo.lookup(0, "k") is None
        memo.store(0, "k", "v")
        memo.store(0, "other", "w")
        assert memo.lookup(0, "k") == "v"
        assert memo.lookup(1, "k") is None      # read under a new stamp
        assert memo.lookup(0, "k") == "v"       # ... drops nothing
        memo.store(1, "new", "x")
        assert memo.lookup(0, "k") is None      # the next store does
        assert memo.lookup(1, "k") is None
        assert memo.lookup(1, "new") == "x"
        assert len(memo._table) == 1


# ----------------------------------------------------------------------
def queueing(platform, app):
    """Arrivals through a one-shard fleet's backlog (room for three):
    eight tenants of one pricing key on four classes, a late one; the
    shard's server and the fleet report."""
    def drive():
        router = one_shard_router(
            5, max_ticks=64, queue_capacity=3, backlog_patience=64,
            max_impact_ratio=1.5)
        for index in range(8):
            router.submit(TenantSpec(
                name=f"t{index}", application=app,
                windows=2 + index % 3, window_tasks=4))
        router.open_stepped()
        for tick in range(20):
            if tick == 3:
                router.submit(TenantSpec(
                    name="late", application=app, windows=2,
                    window_tasks=4, preferred_classes={"gpu"}))
            if router.step(tick) and tick > 3:
                break
        report = router.close_stepped()
        (server,) = router.shards[0].closed_servers
        return server, report
    return drive


class TestSameBytes:
    @pytest.mark.parametrize("reschedule", [False, True],
                             ids=["frozen", "reschedule"])
    def test_the_soak_with_drift_edges(self, monkeypatch, reschedule):
        shipped, (_, priced), (_, oracle_priced) = both_ways(
            monkeypatch, drifting_soak(reschedule))
        timeline = json.loads(shipped)["timeline"]
        assert any(e["event"] == "reschedule"
                   for e in timeline) == reschedule
        assert 0 < priced <= oracle_priced

    def test_attribution_armed_blame_still_sums_to_slowdown(
            self, monkeypatch):
        # The blame decomposition reads ``sources`` off the co-load
        # view: conservation, and nobody is ever blamed for itself.
        drive = drifting_soak(reschedule=True, attribution=True)
        both_ways(monkeypatch, drive)
        server, report = drive()
        assert report.attribution["windows"] > 0
        blamed = set()
        for name, record in server.records.items():
            for row in record.history:
                blame = row.blame
                assert blame.tenant == name
                assert blame.attributed + blame.residual == (
                    pytest.approx(blame.slowdown - 1.0, abs=1e-9))
                sources = {share.source for share in blame.shares}
                assert name not in sources
                blamed |= sources
        assert any(source.startswith("drift:") for source in blamed)
        assert blamed & set(server.records)

    def test_a_standing_queue_is_not_repriced(self, monkeypatch, platform,
                                              app):
        shipped, (_, priced), (_, oracle_priced) = both_ways(
            monkeypatch, queueing(platform, app))
        out = json.loads(shipped)
        events = {e["event"] for e in out["report"]["timeline"]}
        assert {"place", "reject"} <= events
        # One key fills the backlog: its verdict is read, not re-made,
        # for as long as nothing was admitted or released.
        assert 0 < priced < oracle_priced

    def test_eviction_mid_batch(self, monkeypatch, patience_one, platform,
                                app):
        def drive():
            # The first-served tenant evicts one whose window for this
            # tick is already in the batch.
            server = bare_server(
                platform, max_impact_ratio=1e9, reschedule=True)
            classes = sorted(platform.schedulable_classes())
            for index, cls in enumerate(classes):
                assert server.try_admit(TenantSpec(
                    name="sufferer" if index == 0 else f"low{index}",
                    application=app, window_tasks=4,
                    priority=5 if index == 0 else 0,
                    windows=10 if index < len(classes) - 1 else 6,
                    required_classes={cls},
                ), tick=0).action == ADMIT
            server.step(0)
            server.step(1)
            server.inject_drift(ExternalLoad({classes[0]: 0.95}, 16.0), None)
            for tick in range(2, 14):
                server.step(tick)
            server.close()
            return server, None

        shipped, _, _ = both_ways(monkeypatch, drive)
        timeline = json.loads(shipped)["timeline"]
        assert any(e["event"] == "evict" for e in timeline)
        assert not any(e["event"] == "fail" for e in timeline)

    def test_a_tenant_failing_while_the_batch_is_built(
            self, monkeypatch, platform, app):
        # "doomed" (the only one streaming 5-task windows) cannot be
        # served at tick 2: it fails inside the batch-building loop, so
        # "late" - behind it in _live - is served without its load that
        # very tick, and "steady" - ahead of it - with it.  Both ways
        # must agree on who saw what.
        def drive():
            armed = {"now": False}
            original = Deployment.remembered  # the switch's, when off

            def remembered(self, external, n_tasks):
                if n_tasks == 5 and armed["now"]:
                    raise PipelineError("injected batch-build failure")
                return original(self, external, n_tasks)

            server = bare_server(platform)
            for name in ("steady", "doomed", "late"):
                assert server.try_admit(TenantSpec(
                    name=name, application=app, windows=6,
                    window_tasks=5 if name == "doomed" else 4,
                ), tick=0).action == ADMIT
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(Deployment, "remembered", remembered)
                for tick in range(8):
                    armed["now"] = tick == 2
                    server.step(tick)
            server.close()
            return server, None

        shipped, _, _ = both_ways(monkeypatch, drive)
        out = json.loads(shipped)
        assert [(e["tenant"], e["tick"]) for e in out["timeline"]
                if e["event"] == "fail"] == [("doomed", 2)]
        server, _ = drive()
        steady, late = (
            [row.measured_latency_s
             for row in server.records[name].history]
            for name in ("steady", "late"))
        # Tick 2: steady still saw doomed, late no longer did.
        assert steady[2] == steady[1] and late[2] != late[1]
        assert steady[3] != steady[2] and late[3] == late[2]

    def test_a_window_failing_in_the_batch(self, monkeypatch, platform,
                                           app):
        original = SimulatedPipelineExecutor.run

        def run(self, n_tasks, **kwargs):
            load = kwargs.get("external_load")
            if (kwargs.get("tenant") == "doomed" and load is not None
                    and load.demand_gbps >= 16.0):
                raise PipelineError("injected window failure")
            return original(self, n_tasks, **kwargs)

        monkeypatch.setattr(SimulatedPipelineExecutor, "run", run)

        def drive():
            server = bare_server(platform)
            for name in ("steady", "doomed", "late"):
                assert server.try_admit(TenantSpec(
                    name=name, application=app, windows=9,
                    window_tasks=4), tick=0).action == ADMIT
            for tick in range(10):
                if tick == 4:
                    server.inject_drift(ExternalLoad(demand_gbps=16.0), None)
                server.step(tick)
            server.close()
            return server, None

        shipped, _, _ = both_ways(monkeypatch, drive)
        out = json.loads(shipped)
        assert [(e["tenant"], e["tick"]) for e in out["timeline"]
                if e["event"] == "fail"] == [("doomed", 4)]
        assert out["records"]["doomed"][0] == FAILED
        assert out["records"]["late"][0] == COMPLETED


# ----------------------------------------------------------------------
class TestAVerdictEndsWithItsPlacement:
    """Every path that changes the placement - or a deployed schedule -
    crosses ``PlacementMap.assign`` / ``release``, so no verdict taken
    before it is served after it.  Each test fails when the bump is
    moved out of the map and into ``_deploy`` alone."""

    @pytest.fixture
    def server(self, platform):
        return bare_server(platform, max_impact_ratio=1e9)

    def holder(self, server, app, name, cls, **kwargs):
        spec = TenantSpec(name=name, application=app, windows=8,
                          window_tasks=4, required_classes={cls},
                          **kwargs)
        assert server.try_admit(spec, tick=0).action == ADMIT
        return spec

    def test_a_repeated_question_is_read_not_repriced(
            self, server, app, monkeypatch):
        counter = count_pricings(monkeypatch)
        self.holder(server, app, "gpu-holder", "gpu")
        asked = counter["evaluate"]
        wants_gpu = TenantSpec(name="w0", application=app,
                               required_classes={"gpu"})
        first = server.price(wants_gpu)
        assert first.action == QUEUE
        twin = TenantSpec(name="w1", application=app, priority=3,
                          windows=2, required_classes={"gpu"})
        assert server.price(twin) is first          # same pricing key
        assert counter["evaluate"] == asked + 1

    def test_withdraw(self, server, app):
        self.holder(server, app, "gpu-holder", "gpu")
        wants_gpu = TenantSpec(name="w", application=app,
                               required_classes={"gpu"})
        assert server.price(wants_gpu).action == QUEUE
        server.withdraw("gpu-holder", "test", tick=1)
        assert server.price(wants_gpu).action == ADMIT
        assert server.records["gpu-holder"].status == EVICTED

    def test_rescind_after_admit(self, server, app):
        wants_gpu = TenantSpec(name="w", application=app,
                               required_classes={"gpu"})
        assert server.price(wants_gpu).action == ADMIT
        self.holder(server, app, "undone", "gpu")
        between = server.price(wants_gpu)
        assert between.action == QUEUE
        server.rescind("undone")
        after = server.price(wants_gpu)
        assert after.action == ADMIT
        assert after == fresh_verdict(server, wants_gpu)

    def test_completion_and_failure(self, server, app, monkeypatch):
        spec = TenantSpec(name="short", application=app, windows=1,
                          window_tasks=4, required_classes={"gpu"})
        assert server.try_admit(spec, tick=0).action == ADMIT
        self.holder(server, app, "doomed", "big")
        wants = {cls: TenantSpec(name=f"w-{cls}", application=app,
                                 required_classes={cls})
                 for cls in ("gpu", "big")}
        assert {server.price(s).action for s in wants.values()} == {
            QUEUE}
        original = SimulatedPipelineExecutor.run

        def run(self, n_tasks, **kwargs):
            if kwargs.get("tenant") == "doomed":
                raise PipelineError("injected window failure")
            return original(self, n_tasks, **kwargs)

        monkeypatch.setattr(SimulatedPipelineExecutor, "run", run)
        server.step(0)
        assert server.records["short"].status == COMPLETED
        assert server.records["doomed"].status == FAILED
        assert {server.price(s).action for s in wants.values()} == {
            ADMIT}

    def test_switch(self, app):
        # The soak's drift victim SWITCHes schedule mid-run.  A verdict
        # priced on the tick before must not survive it: the
        # incumbent's partition and contention span both moved.
        scenario = SoakScenario(seed=7, windows=30)
        router = scenario.driver().router
        for spec in scenario.tenants():
            router.submit(spec)
        router.open_stepped()
        server = router.shards[0].server
        probe = TenantSpec(name="probe", application=app)
        router.step(0)
        for tick in range(1, 30):
            before, epoch = server.price(probe), server.placement.epoch
            router.step(tick)
            if any(e["event"] == "reschedule" for e in server.timeline):
                break
        else:
            pytest.fail("the soak never rescheduled")
        assert server.placement.epoch > epoch
        after = server.price(probe)
        assert after == fresh_verdict(server, probe)
        # The victim spread onto the class the probe was promised.
        assert (before.action, after.action) == (ADMIT, QUEUE)
        router.close_stepped()

    def test_evict_for(self, patience_one, platform, app):
        server = bare_server(
            platform, max_impact_ratio=1e9, reschedule=True)
        classes = sorted(platform.schedulable_classes())
        for index, cls in enumerate(classes):
            assert server.try_admit(TenantSpec(
                name="sufferer" if index == 0 else f"low{index}",
                application=app, window_tasks=4,
                priority=5 if index == 0 else 0, windows=10,
                required_classes={cls},
            ), tick=0).action == ADMIT
        probe = TenantSpec(name="probe", application=app)
        server.step(0)
        server.step(1)
        assert server.price(probe).action == QUEUE   # SoC is full
        server.inject_drift(ExternalLoad({classes[0]: 0.95}, 16.0), None)
        for tick in range(2, 8):
            server.step(tick)
            if any(e["event"] == "evict" for e in server.timeline):
                break
        else:
            pytest.fail("nobody was evicted")
        assert server.price(probe) == fresh_verdict(server, probe)
        assert server.price(probe).action == ADMIT
        server.close()


class TestTheCoLoadView:
    def test_it_is_rebuilt_when_the_placement_or_a_drift_moves(
            self, platform, app, monkeypatch):
        combined = {"calls": 0}
        original = ExternalLoad.combined.__func__

        def counting(cls, loads):
            combined["calls"] += 1
            return original(cls, loads)

        monkeypatch.setattr(ExternalLoad, "combined",
                            classmethod(counting))
        server = bare_server(platform)
        for name in ("a", "b"):
            assert server.try_admit(TenantSpec(
                name=name, application=app, windows=20,
                window_tasks=4), tick=0).action == ADMIT
        server.step(0)
        assert combined["calls"] == 2
        server.step(1)
        server.step(2)
        server.step(3)
        assert combined["calls"] == 2           # nothing moved
        # A drift handed over mid-run: its two edges, one rebuild per
        # tenant each.
        server.inject_drift(ExternalLoad({"little": 0.6}, 30.0), end_tick=6)
        server.step(4)
        assert combined["calls"] == 4
        server.step(5)
        assert combined["calls"] == 4
        server.step(6)
        assert combined["calls"] == 6
        loads = {name: server.records[name].history for name in "ab"}
        assert loads["a"][4].measured_latency_s != (
            loads["a"][3].measured_latency_s)
        assert loads["a"][6].measured_latency_s == (
            loads["a"][3].measured_latency_s)
        # A newcomer: every view moves, its own included.
        assert server.try_admit(TenantSpec(
            name="c", application=app, windows=20,
            window_tasks=4), tick=7).action == ADMIT
        server.step(7)
        assert combined["calls"] == 9
        server.close()


# ----------------------------------------------------------------------
class TestInstruments:
    def test_hit_share_and_epoch_are_recorded_only_when_asked(
            self, platform, app):
        drive = queueing(platform, app)
        server, report = drive()                # instruments off
        dumped = json.dumps(report.to_dict())
        assert "priced" not in dumped and "placement_epoch" not in dumped
        with capture() as cap:
            server, _ = drive()
        snapshot = cap.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["admission.priced"] > 0
        assert counters["admission.remembered"] > 0
        # One plan look-up per real pricing, none per remembered one.
        assert counters["admission.priced"] == (
            counters["plan_cache.hits"] + counters["plan_cache.misses"]
            - sum(1 for e in server.timeline if e["event"] == "admit"))
        assert snapshot["gauges"]["serve.placement_epoch.soc0"] == float(
            server.placement.epoch)
        assert server.placement.epoch == sum(
            1 for e in server.timeline
            if e["event"] in ("admit", "complete"))

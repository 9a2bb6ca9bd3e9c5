"""FleetRouter construction, submission, and small end-to-end runs."""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.errors import FleetError, PipelineError
from repro.fleet import (
    ChaosSchedule,
    DegradeSpec,
    FleetConfig,
    FleetRouter,
    GrayFailureSpec,
    ShardCrashSpec,
    ShardSpec,
)
from repro.serve.tenant import TenantSpec
from repro.traffic import OpenLoopDriver

from tests.soaks import drive


def _spec(name, seed=11, **kwargs):
    app = build_synthetic_application(seed=seed, stage_count=2)
    kwargs.setdefault("windows", 2)
    kwargs.setdefault("window_tasks", 4)
    return TenantSpec(name=name, application=app, **kwargs)


def _two_shards():
    return [ShardSpec("s0", platform_seed=7),
            ShardSpec("s1", platform_seed=7)]


class TestConstruction:
    def test_empty_fleet_rejected(self):
        with pytest.raises(FleetError, match="at least one shard"):
            FleetRouter([])

    def test_duplicate_shard_names_rejected(self):
        with pytest.raises(FleetError, match="duplicate shard names"):
            FleetRouter([ShardSpec("s0"), ShardSpec("s0")])

    def test_chaos_must_name_known_shards(self):
        chaos = ChaosSchedule(crashes=[ShardCrashSpec("ghost",
                                                      at_tick=4)])
        with pytest.raises(FleetError, match="unknown shard 'ghost'"):
            FleetRouter([ShardSpec("s0")], chaos=chaos)

    @pytest.mark.parametrize("chaos", [
        ChaosSchedule(grays=[GrayFailureSpec("zz", start_tick=2,
                                             end_tick=6)]),
        ChaosSchedule(degradations=[DegradeSpec("zz", start_tick=2,
                                                busy={"big": 0.5})]),
    ], ids=["gray", "degrade"])
    def test_every_chaos_spec_must_name_a_known_shard(self, chaos):
        # Caught at construction, not as a KeyError at the start tick
        # or as a chaos event logged against a shard that is not there.
        with pytest.raises(FleetError, match="unknown shard 'zz'"):
            FleetRouter(_two_shards(), chaos=chaos)

    def test_identical_shards_share_platform_and_cache(self):
        router = FleetRouter(_two_shards()
                             + [ShardSpec("s2", platform_seed=11)])
        s0, s1, s2 = router.shards
        assert s0.platform is s1.platform
        assert s0.plan_cache is s1.plan_cache
        assert s2.platform is not s0.platform
        assert s2.plan_cache is not s0.plan_cache

    def test_each_shard_gets_its_own_breaker(self):
        router = FleetRouter(_two_shards())
        assert set(router.breakers) == {"s0", "s1"}
        assert (router.breakers["s0"]
                is not router.breakers["s1"])


class TestSubmission:
    def test_duplicate_tenant_name_rejected(self):
        router = FleetRouter(_two_shards())
        router.submit(_spec("t"))
        with pytest.raises(FleetError, match="already submitted"):
            router.submit(_spec("t"))

    def test_double_start_rejected(self):
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=2))
        router.open_stepped()
        with pytest.raises(FleetError, match="already started"):
            router.open_stepped()
        router.close_stepped()
        with pytest.raises(FleetError, match="already started"):
            router.open_stepped()

    def test_submit_after_drain_rejected(self):
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=2))
        drive(router, [])
        with pytest.raises(FleetError, match="has drained"):
            router.submit(_spec("late"))


class TestSmallFleetRun:
    def test_empty_fleet_drains_immediately(self):
        router = FleetRouter(_two_shards())
        report = drive(router, [])
        assert report.ticks == 1
        assert report.tenants == {}
        assert all(s["state"] == "healthy"
                   for s in report.shards.values())

    def test_quiet_run_completes_every_tenant(self):
        router = FleetRouter(_two_shards(),
                             config=FleetConfig(max_ticks=32))
        report = drive(router, [_spec(f"t{i}", seed=11 + i)
                                for i in range(3)])
        assert all(m.status == "completed"
                   for m in report.tenants.values())
        assert report.counts["place"] == 3
        assert report.counts["complete"] == 3
        assert "failover" not in report.counts
        # Latency samples flowed up: windows * window_tasks items each.
        for metric in report.tenants.values():
            assert metric.windows_served == 2
            assert metric.p95_latency_s > 0.0

    def test_tick_budget_exhaustion_fails_running_tenants(self):
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=2))
        report = drive(router, [_spec("t", windows=50)])
        assert report.tenants["t"].status == "failed"
        tenant = router.tenants["t"]
        assert "tick budget exhausted" in tenant.status_detail


class TestStepMode:
    def test_step_requires_open_stepped(self):
        router = FleetRouter(_two_shards())
        with pytest.raises(FleetError, match="open_stepped"):
            router.step(0)
        with pytest.raises(FleetError, match="open_stepped"):
            router.close_stepped()
        router.open_stepped()
        router.close_stepped()
        with pytest.raises(FleetError, match="open_stepped"):
            router.step(0)
        with pytest.raises(FleetError, match="open_stepped"):
            router.close_stepped()

    def test_run_after_open_stepped_rejected(self):
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=2))
        router.open_stepped()
        with pytest.raises(FleetError, match="already started"):
            drive(router, [])
        # The refused run() left the open fleet alone.
        assert router.step(0)
        router.close_stepped()

    def test_mid_run_submission_is_placed(self):
        # Open-loop ingress: a tenant submitted after ticking began is
        # picked up by a later placement phase.
        router = FleetRouter(_two_shards(),
                             config=FleetConfig(max_ticks=48))
        router.open_stepped()
        router.submit(_spec("early"))
        for tick in range(4):
            router.step(tick)
        router.submit(_spec("late", seed=13))
        tick = 4
        while not router.step(tick):
            tick += 1
        report = router.close_stepped()
        assert report.tenants["early"].status == "completed"
        assert report.tenants["late"].status == "completed"

    def test_close_stepped_settles_running_tenants(self):
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=64))
        router.submit(_spec("t", windows=50))
        router.open_stepped()
        router.step(0)
        report = router.close_stepped(detail="driver budget spent")
        assert report.tenants["t"].status == "failed"
        assert "driver budget spent" in router.tenants["t"].status_detail

    def test_window_log_and_isolated_reference(self):
        router = FleetRouter(_two_shards(),
                             config=FleetConfig(max_ticks=32))
        report = drive(router, [_spec("t")])
        assert len(router.window_log) == 2
        for row in router.window_log:
            assert row.tenant == "t"
            assert row.latency_s > 0.0
            assert row.isolated_s > 0.0
        places = [e for e in report.timeline if e["event"] == "place"]
        assert places and all(e["isolated_s"] > 0.0 for e in places)


class TestEvictedMidBatch:
    """A shard's eviction fallback can remove a tenant whose window for
    the tick is already in the batch, so the router harvests the
    victim's ``evict`` before its ``window``."""

    def test_no_health_baseline_outlives_the_residency(self):
        # One shard packed one tenant per class; the sufferer (served
        # first, highest priority) is browned out on its own class, so
        # no re-rank helps and the eviction fallback fires.
        router = FleetRouter(
            [ShardSpec("s0", platform_seed=7)], seed=5,
            config=FleetConfig(max_ticks=64, max_impact_ratio=1e9),
            chaos=ChaosSchedule(degradations=[DegradeSpec(
                "s0", start_tick=1, busy={"big": 0.95},
                demand_gbps=16.0)]),
        )
        for index, cls in enumerate(("big", "medium", "little", "gpu")):
            router.submit(_spec(
                "sufferer" if index == 0 else f"low{index}",
                priority=5 if index == 0 else 0, windows=10,
                required_classes=frozenset({cls}),
            ))
        router.open_stepped()
        server = router.shards[0].server
        for tick in range(6):
            router.step(tick)
            evicted = [e["tenant"] for e in server.timeline
                       if e["event"] == "evict"]
            if evicted:
                break
        assert evicted == ["low3"]
        assert [e["event"] for e in server.timeline
                if e["tenant"] == "low3" and e["tick"] == tick] == [
                    "evict", "window"]
        victim = router.tenants["low3"]
        # The window counts and its ratio was scored ...
        assert victim.windows[-1].tick == tick
        # ... but the shard keeps no baseline for a tenant it no longer
        # hosts: a later generation would score against it.
        assert victim.shard is None
        assert "low3" not in router.monitor.health("s0").baselines
        assert "sufferer" in router.monitor.health("s0").baselines


class TestBacklogPatience:
    def test_unplaceable_tenant_rejected_after_patience(self):
        # Both tenants insist on the single GPU of the only shard; the
        # second waits in the fleet backlog until patience expires.
        router = FleetRouter(
            [ShardSpec("s0")],
            config=FleetConfig(max_ticks=48, backlog_patience=2),
        )
        report = drive(router, [
            _spec("holder", windows=12, required_classes={"gpu"}),
            _spec("waiter", windows=2, required_classes={"gpu"}),
        ])
        assert report.tenants["holder"].status == "completed"
        assert report.tenants["waiter"].status == "rejected"
        assert "backlog" in router.tenants["waiter"].status_detail
        rejects = [e for e in report.timeline
                   if e["event"] == "reject"]
        assert [e["tenant"] for e in rejects] == ["waiter"]
        assert report.counts["reject"] == 1


class TestRunAborts:
    @pytest.fixture
    def driver(self):
        # Both tenants insist on the only GPU: one runs, one backlogs.
        router = FleetRouter([ShardSpec("s0")],
                             config=FleetConfig(max_ticks=32))
        return OpenLoopDriver(router, [
            _spec(name, windows=12, required_classes={"gpu"})
            for name in ("holder", "waiter")
        ])

    def test_unexpected_tick_error_propagates_and_closes(
            self, driver, tick_raises):
        router = driver.router
        tick_raises(router, 2, KeyError("boom"))
        with pytest.raises(KeyError, match="boom"):
            driver.run()
        assert router.ticks_executed == 2
        assert not any(shard.alive for shard in router.shards)
        with pytest.raises(FleetError, match="has drained"):
            router.submit(_spec("late"))

    def test_repro_error_aborts_after_close_out(self, driver,
                                                tick_raises):
        router = driver.router
        tick_raises(router, 2, PipelineError("kernel wedged"))
        with pytest.raises(
                FleetError,
                match="fleet loop aborted: kernel wedged") as raised:
            driver.run()
        assert isinstance(raised.value.__cause__, PipelineError)
        holder, waiter = (router.tenants[n] for n in ("holder",
                                                      "waiter"))
        assert (holder.status, holder.status_detail) == (
            "failed", "kernel wedged")
        assert waiter.status == "rejected"
        assert "backlog" in waiter.status_detail
        assert not any(shard.alive for shard in router.shards)
        report = router.report()
        assert report.ticks == 2
        assert report.tenants["holder"].windows_served == 2

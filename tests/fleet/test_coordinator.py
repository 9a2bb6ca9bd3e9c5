"""Failover atomicity: evacuate, relocate-or-rollback, priority shed.

These tests drive the router's internals directly on the test thread -
shards are booted by hand and never stepped - so every admission and
rollback is observable without racing a fleet loop.
"""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.fleet import (
    SHED,
    FleetConfig,
    FleetRouter,
    FleetTenant,
    ShardSpec,
)
from repro.serve.admission import ADMIT
from repro.serve.tenant import EVICTED, RUNNING, TenantSpec

#: pixel7a's PU classes; a tenant pinned to one class occupies exactly
#: one partition slot, making shard capacity structural (4 slots).
CLASSES = ("big", "medium", "little", "gpu")


def _fleet():
    # Impact admission is effectively disabled so capacity comes only
    # from partition slots - the knob the rollback tests manipulate.
    router = FleetRouter(
        [ShardSpec("s0"), ShardSpec("s1")],
        seed=3,
        config=FleetConfig(max_ticks=64, max_impact_ratio=1e9),
    )
    for shard in router.shards:
        shard.boot()
    return router


def _admit(router, shard, name, priority=0, required=(), windows=30):
    app = build_synthetic_application(seed=11, stage_count=2)
    spec = TenantSpec(name=name, application=app, priority=priority,
                      windows=windows, window_tasks=4,
                      required_classes=frozenset(required))
    tenant = FleetTenant(spec=spec, arrival=router._arrival_counter)
    router._arrival_counter += 1
    router.tenants[name] = tenant
    decision = shard.server.try_admit(spec, tick=0)
    assert decision.action == ADMIT, decision
    router.commit_placement(tenant, shard, 0, "place")
    return tenant


def _admits_for(shard, tenant_name):
    return [e for e in shard.server.timeline
            if e["event"] == "admit" and e["tenant"] == tenant_name]


class TestEvacuation:
    def test_live_shard_drain_withdraws_from_the_server(self):
        router = _fleet()
        s0, s1 = router.shards
        _admit(router, s0, "t-a", priority=1)
        _admit(router, s0, "t-b", priority=0)

        router.failover(s0, tick=5, cause="SLO breach")

        # Both tenants were withdrawn (not lost) and landed on s1.
        withdrawn = [e["tenant"] for e in s0.server.timeline
                     if e["event"] == "withdraw"]
        assert sorted(withdrawn) == ["t-a", "t-b"]
        for name in ("t-a", "t-b"):
            assert s0.server.records[name].status == EVICTED
            tenant = router.tenants[name]
            assert tenant.status == RUNNING
            assert tenant.shard == "s1"
            assert tenant.shard_history == ["s0", "s1"]
            assert tenant.migrations == 1
        failovers = [e for e in router.timeline
                     if e["event"] == "failover"]
        assert len(failovers) == 1
        assert failovers[0]["displaced"] == 2
        assert router.report().counts["failover"] == 1

    def test_empty_shard_failover_is_a_no_op(self):
        router = _fleet()
        s0, _ = router.shards
        router.failover(s0, tick=5, cause="whatever")
        assert "failover" not in router.report().counts
        assert router.timeline == []


class TestAtomicRollback:
    def test_partial_placement_rolls_back_then_sheds_lowest(self):
        router = _fleet()
        s0, s1 = router.shards
        # s1 keeps exactly ONE free slot (gpu); the failover batch of
        # two cannot fully land on the first attempt.
        for cls in ("big", "medium", "little"):
            _admit(router, s1, f"filler-{cls}", required=(cls,))
        t_low = _admit(router, s0, "t-low", priority=0)
        t_high = _admit(router, s0, "t-high", priority=2)
        s0.close(detail="crashed under test")

        router.failover(s0, tick=9, cause="s0 crashed")

        # Attempt 1 placed t-high, got stuck on t-low, rescinded
        # t-high; attempt 2 placed t-high again.  Two admissions on s1
        # is the rollback's signature.
        assert len(_admits_for(s1, "t-high")) == 2
        assert t_high.status == RUNNING
        assert t_high.shard == "s1"
        assert t_low.status == SHED
        assert "could not absorb" in t_low.status_detail
        assert _admits_for(s1, "t-low") == []
        # s1 came out coherent: three fillers plus t-high, and the
        # partition map checks out.
        running = s1.server.running_records()
        assert sorted(running) == [
            "filler-big", "filler-little", "filler-medium", "t-high",
        ]
        s1.server.placement.check()
        shed_events = [e for e in router.timeline
                       if e["event"] == "shed"]
        assert [e["tenant"] for e in shed_events] == ["t-low"]
        assert shed_events[0]["priority"] == 0

    def test_saturated_fleet_sheds_whole_batch_untouched(self):
        router = _fleet()
        s0, s1 = router.shards
        for cls in CLASSES:
            _admit(router, s1, f"filler-{cls}", required=(cls,))
        t_low = _admit(router, s0, "t-low", priority=0)
        t_high = _admit(router, s0, "t-high", priority=2)
        s0.close(detail="crashed under test")

        router.failover(s0, tick=9, cause="s0 crashed")

        # Shedding order is priority-ascending: t-low first, then
        # t-high once even the singleton batch cannot land.
        shed = [e["tenant"] for e in router.timeline
                if e["event"] == "shed"]
        assert shed == ["t-low", "t-high"]
        assert t_low.status == SHED
        assert t_high.status == SHED
        # s1 never saw the batch - no admissions, fillers untouched.
        assert _admits_for(s1, "t-high") == []
        assert _admits_for(s1, "t-low") == []
        assert sorted(s1.server.running_records()) == [
            f"filler-{cls}" for cls in sorted(CLASSES)
        ]

    def test_batch_relocation_is_priority_ordered(self):
        router = _fleet()
        s0, s1 = router.shards
        # Two free slots on s1; three displaced tenants of distinct
        # priorities: the two highest land, the lowest is shed.
        for cls in ("big", "medium"):
            _admit(router, s1, f"filler-{cls}", required=(cls,))
        t0 = _admit(router, s0, "t-p0", priority=0)
        t1 = _admit(router, s0, "t-p1", priority=1)
        t2 = _admit(router, s0, "t-p2", priority=2)
        s0.close(detail="crashed under test")

        router.failover(s0, tick=9, cause="s0 crashed")

        assert t2.status == RUNNING and t2.shard == "s1"
        assert t1.status == RUNNING and t1.shard == "s1"
        assert t0.status == SHED

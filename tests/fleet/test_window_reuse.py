"""Fleet-level oracles for state that outlives the tick.

Two of them (the chaos soak with every host memo off is
``tests/fleet/test_placement_epoch.py``'s).  (1) Deployments live on
the plan cache, so they are shared exactly as far as it is: by
same-platform shards and by a crashed shard's next generation, never
across platform seeds or SoC types - and a fleet that builds every
deployment afresh (``tests.memo_off``) writes the same report.  (2) The
router and every shard server answer "drained?" and "how deep is the
backlog?" from live state; the full scans over every tenant ever seen
they replaced are kept here as the oracle, compared after every tick.
"""

import json

import repro.serve.server as serve_server
from repro.apps.synthetic import build_synthetic_application
from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.fleet.chaos import ChaosSchedule, ShardCrashSpec
from repro.serve.admission import ADMIT
from repro.serve.tenant import PENDING, TenantSpec
from repro.traffic import FleetSoakScenario

from tests.memo_off import memos_off

SCENARIO = FleetSoakScenario()


def test_a_rejoined_generation_reuses_the_caches_deployments():
    # Two same-platform shards serving one application: the crashed
    # shard's tenants fail over to its neighbour, and the arrivals after
    # the rejoin land on the second generation.
    crash_tick, rejoin_tick = 4, 8
    application = build_synthetic_application(seed=11, stage_count=3)

    def soak(observe=True):
        router = FleetRouter(
            [ShardSpec(name="a"), ShardSpec(name="b")], seed=3,
            config=FleetConfig(max_ticks=40),
            chaos=ChaosSchedule(crashes=[ShardCrashSpec(
                "a", at_tick=crash_tick, rejoin_tick=rejoin_tick)]),
        )
        def submit(names):
            for name in names:
                router.submit(TenantSpec(
                    name=name, application=application, windows=12,
                    window_tasks=4))

        submit(["t0", "t1", "t2", "t3"])
        router.open_stepped()
        crashed = router.by_name["a"]
        table = crashed.plan_cache._deployments
        for tick in range(40):
            before = crashed.server
            if tick == rejoin_tick:
                submit(["late0", "late1", "late2", "late3"])
            done = router.step(tick)
            if observe:
                observe_tick(tick, crashed, before, table)
            if done:
                break
        report = router.close_stepped()
        assert report.counts["failover"] > 0
        return json.dumps(report.to_dict(), sort_keys=True)

    # Whatever the second generation serves, it serves on deployments
    # built before it booted - by its predecessor or its neighbour.
    seen, reused = {}, []

    def observe_tick(tick, crashed, before, table):
        if tick == crash_tick - 1:
            assert before._deployments  # it was serving tenants
            seen["served"] = set(map(id, before._deployments.values()))
        elif tick == crash_tick:
            assert crashed.server is None
            assert before._deployments == {}  # let go at close
            # ... but the cache outlives the generation.
            assert seen["served"] <= set(map(id, table.values()))
        elif tick == rejoin_tick:
            assert crashed.generation == 2
            assert crashed.server._deployments == {}
            seen["known"] = set(map(id, table.values()))
        elif tick > rejoin_tick and crashed.server._deployments:
            reused.append(all(
                id(deployment) in seen["known"] for deployment
                in crashed.server._deployments.values()))

    shipped = soak()
    assert reused and all(reused)
    with memos_off():
        assert soak(observe=False) == shipped


def test_deployments_are_shared_exactly_as_far_as_the_plan_cache(
        monkeypatch):
    router = FleetRouter([
        ShardSpec(name="a", platform_name="pixel7a", platform_seed=7),
        ShardSpec(name="b", platform_name="pixel7a", platform_seed=7),
        ShardSpec(name="reseeded", platform_name="pixel7a",
                  platform_seed=8),
        ShardSpec(name="other-soc", platform_name="jetson_orin_nano",
                  platform_seed=7),
    ], seed=3)
    router.open_stepped()
    application = build_synthetic_application(seed=11, stage_count=3)
    simulated = {shard.name: 0 for shard in router.shards}
    original = serve_server.simulate_batch

    def counting(windows, **kwargs):
        simulated[serving] += sum(
            1 for window in windows if window.remembered is None)
        return original(windows, **kwargs)

    monkeypatch.setattr(serve_server, "simulate_batch", counting)
    for shard in router.shards:
        serving = shard.name
        assert shard.server.try_admit(TenantSpec(
            name=f"tenant-on-{serving}", application=application,
            windows=3, window_tasks=4, required_classes={"big"},
        ), tick=0).action == ADMIT
        for tick in range(3):
            shard.server.step(tick)
    # One window, served three times on each shard: the first shard
    # pays for it once, its twin never, strangers once each.
    assert simulated == {"a": 1, "b": 0, "reseeded": 1, "other-soc": 1}
    a, b, reseeded, other = (shard.plan_cache for shard in router.shards)
    assert a is b and len(a._deployments) == 1
    assert reseeded is not a and other is not a
    assert len(reseeded._deployments) == len(other._deployments) == 1
    windows = {
        shard.name: [row.measured_latency_s for row in
                     shard.server.records[
                         f"tenant-on-{shard.name}"].history]
        for shard in router.shards
    }
    assert windows["a"] == windows["b"]
    assert windows["other-soc"] != windows["a"]
    router.close_stepped()


def test_live_state_matches_the_full_scans_after_every_tick():
    router = SCENARIO.driver().router
    for spec in SCENARIO.tenants():
        router.submit(spec)
    router.open_stepped()
    pending_seen = 0
    drained = False
    for tick in range(SCENARIO.max_ticks):
        drained = router.step(tick)
        tenants = router.tenants.values()
        assert drained == all(t.done for t in tenants)
        pending = sum(1 for t in tenants if t.status == PENDING)
        assert router.pending_count == pending
        pending_seen = max(pending_seen, pending)
        for shard in router.shards:
            if shard.alive:
                server = shard.server
                assert server._drained() == all(
                    r.done for r in server.records.values())
        if drained:
            break
    assert drained and tick > SCENARIO.chaos().degradations[0].start_tick
    router.close_stepped()

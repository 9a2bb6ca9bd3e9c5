"""Open-loop traffic: reuse must happen, and must not show.

On the shipped overload scenario most served windows are ones some
tenant on a same-platform shard was already served - same application,
schedule, co-load and window size - so at most a third of them may
reach the DES: a regression to per-tenant (or per-tick) simulation
fails here, loudly.  The reports must not be able to tell: the same
soak with every host memo off (``tests.memo_off``) writes the same
bytes, and so does one whose plan caches keep a single deployment warm.
The driver's per-tick ``backlog`` comes from the router's live state;
the scan over every tenant ever seen is kept as its oracle.
"""

import json

import pytest

import repro.core.plan_cache as plan_cache
import repro.serve.server as serve_server
from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.serve.tenant import PENDING
from repro.traffic import FleetOverloadScenario
from repro.traffic import slo
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.generator import TrafficGenerator

from tests.memo_off import memos_off
from tests.soaks import run_overload_soak

SCENARIO = FleetOverloadScenario()


def soak_bytes():
    result, report = run_overload_soak(SCENARIO)
    return json.dumps({
        "report": report.to_dict(),
        "fleet": result.fleet_report.to_dict(),
        "per_tick": result.per_tick,
    }, sort_keys=True), report


def test_at_most_a_third_of_the_served_windows_are_simulated(
        monkeypatch):
    simulated = []
    original = serve_server.simulate_batch

    batched = []

    def counting(windows, **kwargs):
        batched.append(len(windows))
        simulated.append(sum(
            1 for window in windows if window.remembered is None))
        return original(windows, **kwargs)

    monkeypatch.setattr(serve_server, "simulate_batch", counting)
    shipped, report = soak_bytes()
    assert 0 < sum(simulated) <= report.served_windows / 3
    # Every served window still crosses the batch boundary (the perf
    # ledger counts them there), and no batch is empty.
    assert sum(batched) == report.served_windows
    assert 0 not in batched

    del simulated[:]
    with memos_off():
        oracle, _ = soak_bytes()
    assert sum(simulated) == report.served_windows
    assert shipped == oracle


def _driver(scenario, platforms=("pixel7a",), reschedule=False,
            ticks=None):
    spec = scenario.spec()
    router = FleetRouter(
        [ShardSpec(name=f"soc{i}",
                   platform_name=platforms[i % len(platforms)],
                   platform_seed=scenario.platform_seed)
         for i in range(scenario.n_shards)],
        seed=scenario.seed,
        config=FleetConfig(
            max_ticks=scenario.ticks,
            max_impact_ratio=scenario.admission_max_impact_ratio,
            cumulative_impact=True, max_partition_classes=1,
            backlog_patience=scenario.backlog_patience,
            reschedule=reschedule,
        ),
    )
    return OpenLoopDriver(
        router, TrafficGenerator(spec, seed=scenario.seed).events(),
        ticks=ticks or spec.ticks, stage_count=spec.stage_count,
        slo_by_tier={tier.name: tier.slo_slowdown
                     for tier in spec.tiers},
    )


def test_the_tables_stay_bounded_and_the_bound_never_shows(monkeypatch):
    # A 192-application pool over three SoC types: far more distinct
    # deployments than a cache keeps warm.
    scenario = FleetOverloadScenario(
        seed=3, n_shards=6, ticks=240, load_multiplier=0.7,
        app_pool_size=192)

    def soak():
        driver = _driver(
            scenario, ticks=36,
            platforms=("pixel7a", "oneplus11", "jetson_orin_nano"))
        caches = driver.router._caches
        held = []

        def on_tick(_entry):
            held.append(max(len(c._deployments) for c in caches))
            assert max(len(deployment._results) for cache in caches
                       for deployment in cache._deployments.values()
                       ) <= plan_cache._RESULTS_KEPT

        result = driver.run(on_tick=on_tick)
        report = slo.evaluate(scenario.spec(), scenario.seed, result)
        return json.dumps({
            "report": report.to_dict(),
            "fleet": result.fleet_report.to_dict(),
            "per_tick": result.per_tick,
        }, sort_keys=True), max(held)

    shipped, most = soak()
    assert most == plan_cache._DEPLOYMENTS_KEPT   # reached, never passed
    monkeypatch.setattr(plan_cache, "_DEPLOYMENTS_KEPT", 1)
    monkeypatch.setattr(plan_cache, "_RESULTS_KEPT", 1)
    starved, most = soak()
    assert most == 1
    assert starved == shipped


#: The seeds of ``test_reschedule_soak``: a shard evicts a tenant whose
#: last window is already in the tick's batch, so the tenant completes
#: while its backlog entry is still there - ``len(_backlog)`` is wrong.
@pytest.mark.parametrize("driver,stale_entries", [
    (lambda: _driver(SCENARIO), False),
    (lambda: _driver(FleetOverloadScenario(
        seed=21, n_shards=8, ticks=400, load_multiplier=0.5,
        app_pool_size=4), reschedule=True, ticks=56), True),
    (lambda: _driver(FleetOverloadScenario(
        seed=3, n_shards=6, ticks=240, load_multiplier=0.7,
        app_pool_size=192), reschedule=True, ticks=14,
        platforms=("pixel7a", "oneplus11", "jetson_orin_nano")), True),
], ids=["overload", "steady-reschedule", "mixed-reschedule"])
def test_per_tick_backlog_matches_the_scan(driver, stale_entries):
    driver = driver()
    router = driver.router
    scanned, listed = [], []

    def on_tick(entry):
        tenants = router.tenants.values()
        scanned.append(sum(1 for t in tenants if t.status == PENDING))
        listed.append(len(router._backlog))
        assert router._drained() == all(t.done for t in tenants)

    result = driver.run(on_tick=on_tick)
    assert [entry["backlog"] for entry in result.per_tick] == scanned
    assert (scanned != listed) == stale_entries
    assert max(scanned) > 0 or stale_entries

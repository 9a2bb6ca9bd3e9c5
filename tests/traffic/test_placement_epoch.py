"""Open-loop traffic: a standing backlog is priced on the event.

The shipped overload scenario keeps tens of tenants of a few pricing
keys waiting on full shards, tick after tick.  Run as shipped and with
every host memo off (``tests.memo_off``), the traffic report, the fleet
report and the per-tick series must come out byte-identical - while
the shipped run makes well under two thirds of the real pricings: a
regression to per-tenant-per-tick pricing fails here, loudly.  Same for the soaks that mix SoC types, reschedule online and
attribute blame.
"""

import json

import pytest

from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.traffic import FleetOverloadScenario
from repro.traffic import slo
from repro.traffic.driver import OpenLoopDriver
from repro.traffic.generator import TrafficGenerator

from tests.memo_off import memos_off
from tests.serve.conftest import count_pricings
from tests.solve_oracle import first_difference


def dumped(spec, seed, result):
    report = slo.evaluate(spec, seed, result)
    return json.dumps({
        "report": report.to_dict(),
        "fleet": result.fleet_report.to_dict(),
        "per_tick": result.per_tick,
    }, sort_keys=True), report


def test_the_overload_soak_prices_on_the_event(monkeypatch):
    scenario = FleetOverloadScenario()

    def soak():
        result, _ = scenario.run()
        return dumped(scenario.spec(), scenario.seed, result)

    counter = count_pricings(monkeypatch)
    shipped, report = soak()
    priced = counter["evaluate"]
    assert report.rejected > 0              # a backlog did stand

    counter["evaluate"] = 0
    with memos_off():
        oracle, _ = soak()
    assert first_difference(shipped, oracle) is None
    assert 0 < priced < counter["evaluate"] * 2 / 3


@pytest.mark.parametrize("seed,platforms,kwargs,ticks", [
    (3, ("pixel7a", "oneplus11", "jetson_orin_nano"),
     dict(n_shards=6, ticks=240, load_multiplier=0.7,
          app_pool_size=192), 50),
    (21, ("pixel7a",),
     dict(n_shards=8, ticks=400, load_multiplier=0.5,
          app_pool_size=4), 57),
], ids=["mixed-socs", "steady"])
def test_reschedule_soaks_with_attribution(monkeypatch, seed, platforms,
                                           kwargs, ticks):
    # The seeds of ``test_reschedule_soak``: evictions mid-batch, then
    # each soak's first reschedule SWITCH.
    scenario = FleetOverloadScenario(seed=seed, **kwargs)
    spec = scenario.spec()

    def soak():
        router = FleetRouter(
            [ShardSpec(name=f"soc{i}",
                       platform_name=platforms[i % len(platforms)],
                       platform_seed=scenario.platform_seed)
             for i in range(scenario.n_shards)],
            seed=seed,
            config=FleetConfig(
                max_ticks=scenario.ticks,
                max_impact_ratio=scenario.admission_max_impact_ratio,
                cumulative_impact=True, max_partition_classes=1,
                backlog_patience=scenario.backlog_patience,
                reschedule=True, attribution=True,
            ),
        )
        result = OpenLoopDriver(
            router, TrafficGenerator(spec, seed=seed).events(),
            ticks=ticks, stage_count=spec.stage_count,
            slo_by_tier={t.name: t.slo_slowdown for t in spec.tiers},
        ).run()
        return dumped(spec, seed, result)[0], router

    counter = count_pricings(monkeypatch)
    shipped, router = soak()
    priced = counter["evaluate"]
    assert sum(t.reschedules for t in router.tenants.values()) > 0
    for row in router.window_log:
        blame = row.blame
        assert blame.attributed + blame.residual == pytest.approx(
            blame.slowdown - 1.0, abs=1e-9)
        assert row.tenant not in {s.source for s in blame.shares}

    counter["evaluate"] = 0
    with memos_off():
        oracle, _ = soak()
    assert first_difference(shipped, oracle) is None
    assert 0 < priced < counter["evaluate"]

"""Open-loop traffic: cold plans are priced, not solved.

The shipped overload scenario and the mixed-SoC soak cap a tenant at
one PU class, so arrivals are placed from ``CachedPlan.singles`` alone.
Run as shipped and with every plan answering ``singles`` off its
*solved* list (the root conftest's test-only ``always_solve``), the
traffic report, the fleet report and the per-tick series must come out
byte-identical - live, and replayed from a recorded trace.  A fleet
that never reschedules never calls ``BTOptimizer.optimize``; one that
does calls it once per plan it re-ranked, whoever re-ranked it.
"""

import json

import pytest

from repro.traffic import (
    FleetOverloadScenario,
    TrafficTrace,
)
from repro.traffic import slo

from tests.soaks import run_overload_soak
from tests.traffic.test_window_reuse import _driver
from tests.solve_oracle import (
    count_solves,
    distinct,
    first_difference,
    forbid_solves,
    plans_built,
    record_reranks,
)

SCENARIO = FleetOverloadScenario()


def dumped(result, report):
    return json.dumps({
        "report": report.to_dict(),
        "fleet": result.fleet_report.to_dict(),
        "per_tick": result.per_tick,
    }, sort_keys=True)


def test_the_overload_soak_and_its_replay(monkeypatch, always_solve,
                                          tmp_path):
    path = tmp_path / "trace.json"
    TrafficTrace.record(SCENARIO.spec(), SCENARIO.seed).save(path)

    def both():
        return (dumped(*run_overload_soak(SCENARIO)),
                dumped(*run_overload_soak(
                    SCENARIO, trace=TrafficTrace.load(path))))

    solved = count_solves(monkeypatch)
    reranked = record_reranks(monkeypatch)
    live, replayed = both()
    assert live == replayed
    assert json.loads(live)["report"]["rejected"] > 0
    assert sorted(solved) == distinct(reranked)
    paid = len(solved)

    always_solve()
    del solved[:]
    oracle_live, oracle_replayed = both()
    assert first_difference(live, oracle_live) is None
    assert first_difference(replayed, oracle_replayed) is None
    assert len(solved) > paid


def mixed_soc_soak(reschedule):
    """Six shards over three SoC types drawing from a 192-application
    pool (the first ticks of ``test_reschedule_soak``'s seed 3): nearly
    every arrival is a cold plan."""
    scenario = FleetOverloadScenario(
        seed=3, n_shards=6, ticks=240, load_multiplier=0.7,
        app_pool_size=192)
    driver = _driver(
        scenario, ("pixel7a", "oneplus11", "jetson_orin_nano"),
        reschedule=reschedule, ticks=50)
    result = driver.run()
    report = slo.evaluate(scenario.spec(), scenario.seed, result)
    return dumped(result, report), driver.router


def test_cold_plans_are_solved_by_their_first_rerank_only(
        monkeypatch, always_solve):
    solved = count_solves(monkeypatch)
    reranked = record_reranks(monkeypatch)
    shipped, router = mixed_soc_soak(reschedule=True)
    assert sum(t.reschedules for t in router.tenants.values()) > 0
    assert sorted(solved) == distinct(reranked)
    assert 0 < len(solved) < len(reranked)
    paid, cold = len(solved), plans_built(router)
    assert paid < cold / 4

    always_solve()
    del solved[:]
    oracle, _ = mixed_soc_soak(reschedule=True)
    assert first_difference(shipped, oracle) is None
    assert len(solved) == cold


def test_a_capped_fleet_that_never_reschedules_never_solves(monkeypatch):
    forbid_solves(monkeypatch)
    _, router = mixed_soc_soak(reschedule=False)
    assert plans_built(router) > 50

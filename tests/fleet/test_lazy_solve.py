"""The fleet: nobody solves a plan whose K-best nobody can use.

Every shipped fleet caps a tenant at one PU class, so admission -
placement, failover batches, migration - picks among
``CachedPlan.singles`` and the only reader of a solved list is the
rescheduler.  (1) The chaos soak - crash and rejoin generations, a gray
failure, a brownout, failover batches - run as shipped and with every
plan answering ``singles`` off its *solved* list (the root conftest's
test-only ``always_solve``; there is no production switch) must leave
byte-identical fleet reports, shard reports, timelines and window logs.
(2) With rescheduling off, ``BTOptimizer.optimize`` is never called;
with it on, exactly once per plan that was re-ranked, however many
tenants, shards or shard generations re-ranked it.
"""

import dataclasses
import json

import pytest

from repro.traffic import FleetSoakScenario

from tests.serve.conftest import records
from tests.solve_oracle import (
    count_solves,
    distinct,
    first_difference,
    forbid_solves,
    plans_built,
    record_reranks,
)

SCENARIO = FleetSoakScenario()


def run_soak(reschedule):
    driver = SCENARIO.driver()
    router = driver.router
    # Every shard generation reads the fleet's config.
    router.config.reschedule = reschedule
    report = driver.run().fleet_report
    return json.dumps({
        "report": report.to_dict(),
        "timeline": router.timeline,
        "window_log": [dataclasses.asdict(row)
                       for row in router.window_log],
        "shards": {
            shard.name: [[closed.timeline, records(closed)]
                         for closed in shard.closed_servers]
            for shard in router.shards
        },
    }, sort_keys=True), report, router


@pytest.mark.parametrize("reschedule", [True, False],
                         ids=["reschedule", "frozen"])
def test_chaos_soak_bytes_do_not_depend_on_when_a_plan_is_solved(
        monkeypatch, always_solve, reschedule):
    solved = count_solves(monkeypatch)
    reranked = record_reranks(monkeypatch)
    shipped, report, router = run_soak(reschedule)
    # The run exercised what it claims to: generations and failovers.
    assert report.shards[SCENARIO.chaos().crashes[0].shard]["generation"] == 2
    assert report.counts["failover"] == 3
    assert sorted(solved) == distinct(reranked)
    assert bool(solved) == reschedule
    if reschedule:
        # Re-ranked more often than solved: the solve is kept.
        assert len(reranked) > len(solved)
    paid = len(solved)

    always_solve()
    del solved[:]
    oracle, _, oracle_router = run_soak(reschedule)
    assert first_difference(shipped, oracle) is None
    # The eager design solves every plan it builds.
    assert len(solved) == plans_built(oracle_router) > paid


def test_a_capped_fleet_that_never_reschedules_never_solves(monkeypatch):
    forbid_solves(monkeypatch)
    _, report, _ = run_soak(reschedule=False)
    assert report.counts["failover"] == 3
    assert report.counts["place"] >= SCENARIO.n_tenants

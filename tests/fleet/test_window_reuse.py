"""Fleet-level oracles for state that outlives the tick.

Two of them.  (1) The chaos soak - crash and rejoin generations, a gray
failure, a brownout, failover batches - run as shipped and with the
serving layer's reuse decision forced to "always simulate" (the root
conftest's test-only ``always_simulate``; there is no production
switch) must leave byte-identical
fleet reports, shard reports, window logs and exported traces.  (2) The
router and every shard server answer "drained?" and "how deep is the
backlog?" from live state; the full scans over every tenant ever seen
they replaced are kept here as the oracle, compared after every tick.
"""

import dataclasses
import json

import pytest

from repro.fleet import FleetSoakScenario
from repro.fleet.scenario import build_fleet
from repro.obs import capture, chrome_trace
from repro.serve.tenant import PENDING

SCENARIO = FleetSoakScenario()


def run_soak(attribution=False):
    router = build_fleet(SCENARIO, attribution=attribution)
    with capture() as cap:
        report = router.run()
    return json.dumps({
        "report": report.to_dict(),
        "window_log": [dataclasses.asdict(row)
                       for row in router.window_log],
        "shards": {
            shard.name: [closed.to_dict()
                         for closed in shard.closed_reports]
            for shard in router.shards
        },
        "trace": chrome_trace(cap.events, cap.metrics.snapshot()),
    }, sort_keys=True), report


@pytest.mark.parametrize("attribution", [False, True],
                         ids=["plain", "attribution"])
def test_chaos_soak_bytes_do_not_depend_on_reuse(always_simulate,
                                                 attribution):
    shipped, report = run_soak(attribution)
    # The run exercised what it claims to: generations and failovers.
    assert report.shards[SCENARIO.crash_shard]["generation"] == 2
    assert report.counts["failover"] == 3
    assert (report.attribution is not None) == attribution

    always_simulate()
    oracle, _ = run_soak(attribution)
    assert shipped == oracle


def test_a_rejoined_generation_starts_with_no_residency():
    router = build_fleet(SCENARIO)
    router.open_stepped()
    crashed = router.by_name[SCENARIO.crash_shard]
    for tick in range(SCENARIO.rejoin_tick + 1):
        before = crashed.server
        router.step(tick)
        if tick == SCENARIO.crash_tick - 1:
            assert before._residency   # it was serving tenants
        if tick == SCENARIO.crash_tick:
            assert crashed.server is None
            assert before._residency == {}   # released at close
    assert crashed.generation == 2
    assert crashed.server._residency == {}
    router.close_stepped()


def test_live_state_matches_the_full_scans_after_every_tick():
    router = build_fleet(SCENARIO)
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
    assert drained and tick > SCENARIO.degrade_start
    router.close_stepped()

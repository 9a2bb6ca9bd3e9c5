"""Fleet-level oracles for the placement epoch.

A shard prices a pricing key once per placement epoch and the router
keeps its *choice* - the admitting shards of a key, ranked - for as
long as no shard's (generation, placement epoch) and no breaker's gate
moved.  (1) The chaos soak - crash and rejoin generations, a gray
failure, a brownout's drift edges, failover batches with a rollback -
run as shipped and with every host memo off (``tests.memo_off``) must
leave byte-identical fleet reports, shard reports, window logs and
exported traces, with strictly fewer real pricings shipped.  (2) A
choice ends with the fleet state it was ranked at: an admit, the
failover's rollback, a breaker, a new generation.
"""

import dataclasses
import json

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.fleet import (
    SHED,
    FleetConfig,
    FleetRouter,
    FleetTenant,
    ShardSpec,
)
from repro.obs import capture, chrome_trace
from repro.serve.admission import ADMIT
from repro.serve.server import PipelineServer
from repro.serve.tenant import RUNNING, TenantSpec
from repro.traffic import FleetSoakScenario

from tests.memo_off import comparable, memos_off
from tests.serve.conftest import count_pricings, fresh_verdict, records
from tests.solve_oracle import first_difference

SCENARIO = FleetSoakScenario()


def run_soak(attribution=False, reschedule=True):
    driver = SCENARIO.driver(attribution=attribution)
    router = driver.router
    # Every shard generation reads the fleet's config.
    router.config.reschedule = reschedule
    rescinded = []
    real = PipelineServer.rescind

    def rescind(server, name):
        rescinded.append(name)
        real(server, name)

    with capture() as cap, pytest.MonkeyPatch.context() as patch:
        patch.setattr(PipelineServer, "rescind", rescind)
        report = driver.run().fleet_report
    trace = chrome_trace(cap.events, cap.metrics.snapshot())
    return json.dumps({
        "report": report.to_dict(),
        "window_log": [dataclasses.asdict(row)
                       for row in router.window_log],
        "shards": {
            shard.name: [[closed.timeline, records(closed)]
                         for closed in shard.closed_servers]
            for shard in router.shards
        },
        "trace": comparable(json.dumps(trace).encode()).decode(),
    }, sort_keys=True), report, rescinded


@pytest.mark.parametrize("attribution,reschedule", [
    (False, True), (False, False), (True, True),
], ids=["plain", "frozen", "attribution"])
def test_chaos_soak_bytes_do_not_depend_on_the_memo(
        monkeypatch, attribution, reschedule):
    counter = count_pricings(monkeypatch)
    shipped, report, rescinded = run_soak(attribution, reschedule)
    priced = counter["evaluate"]
    # The run exercised what it claims to: generations, the breaker,
    # failover batches, one of them rolled back, and blame when armed.
    assert report.shards[SCENARIO.chaos().crashes[0].shard]["generation"] == 2
    assert report.counts["failover"] == 3
    assert report.counts["breaker"] >= 3
    if reschedule:
        assert report.counts["shed"] == 1 and len(rescinded) == 2
    assert (report.attribution is not None) == attribution
    if attribution:
        for row in json.loads(shipped)["window_log"]:
            blame = row["blame"]
            assert sum(s["share"] for s in blame["shares"]) + (
                blame["residual"]) == pytest.approx(
                    blame["slowdown"] - 1.0, abs=1e-9)
            assert row["tenant"] not in {
                s["source"] for s in blame["shares"]}

    counter["evaluate"] = 0
    with memos_off():
        oracle, _, oracle_rescinded = run_soak(attribution, reschedule)
    assert first_difference(shipped, oracle) is None
    assert rescinded == oracle_rescinded
    assert 0 < priced < counter["evaluate"]


# ----------------------------------------------------------------------
def _fleet(n_shards=2):
    # Impact admission is effectively disabled so capacity comes only
    # from partition slots; shards are booted by hand and never stepped.
    router = FleetRouter(
        [ShardSpec(f"s{i}") for i in range(n_shards)], seed=3,
        config=FleetConfig(max_ticks=64, max_impact_ratio=1e9),
    )
    for shard in router.shards:
        shard.boot()
    return router


APP = build_synthetic_application(seed=11, stage_count=2)


def _spec(name, priority=0, required=()):
    return TenantSpec(name=name, application=APP, priority=priority,
                      windows=30, window_tasks=4,
                      required_classes=frozenset(required))


def _admit(router, shard, name, priority=0, required=()):
    spec = _spec(name, priority, required)
    tenant = FleetTenant(spec=spec, arrival=router._arrival_counter)
    router._arrival_counter += 1
    router.tenants[name] = tenant
    assert shard.server.try_admit(spec, tick=0).action == ADMIT
    router.commit_placement(tenant, shard, 0, "place")
    return tenant


def _choice_across_two_generations(router):
    """Both generations of the only shard stand at the same placement
    epoch behind the same breaker gate when asked for the GPU: the
    first is empty, the second has it taken.  Returns the second
    answer."""
    (shard,) = router.shards
    wants_gpu = _spec("wants-gpu", required=("gpu",))

    def admit(name, cls):
        assert shard.server.try_admit(
            _spec(name, required=(cls,)), tick=0).action == ADMIT

    admit("a", "gpu")
    admit("b", "big")
    shard.server.withdraw("a", "test", tick=0)
    shard.server.withdraw("b", "test", tick=0)
    epoch = shard.server.placement.epoch
    assert router.choose_shard(wants_gpu)[0] is shard
    shard.close(detail="crashed under test")
    shard.boot()
    admit("c", "gpu")
    admit("d", "big")
    shard.server.withdraw("d", "test", tick=1)
    admit("e", "big")
    assert shard.server.placement.epoch == epoch
    return router.choose_shard(wants_gpu)


class TestAChoiceEndsWithTheFleetStateItWasRankedAt:
    def test_same_key_same_state_is_ranked_once(self, monkeypatch):
        router = _fleet()
        counter = count_pricings(monkeypatch)
        first = router.choose_shard(_spec("a"))
        assert counter["evaluate"] == 2          # one per shard
        again = router.choose_shard(_spec("b", priority=2))
        assert counter["evaluate"] == 2
        assert again[0] is first[0] and again[1] is first[1]
        # Another key is another question.
        router.choose_shard(_spec("c", required=("gpu",)))
        assert counter["evaluate"] == 4

    def test_an_admit_moves_it(self):
        router = _fleet()
        s0, s1 = router.shards
        shard, decision = router.choose_shard(_spec("a"))
        assert shard is s0                       # index breaks the tie
        shard.server.admit(_spec("a"), 0, decision)
        shard, decision = router.choose_shard(_spec("b"))
        assert shard is s1                       # least load now
        assert decision == fresh_verdict(s1.server, _spec("b"))

    def test_the_failover_rollback_is_not_priced_stale(self):
        # s1 keeps exactly one free slot; attempt 1 places t-high there,
        # is stuck on t-low, and rescinds.  A choice ranked between the
        # admit and the rescind (no shard admits) must not be what
        # attempt 2 is served - or t-high would be shed too.
        router = _fleet()
        s0, s1 = router.shards
        for cls in ("big", "medium", "little"):
            _admit(router, s1, f"filler-{cls}", required=(cls,))
        t_low = _admit(router, s0, "t-low", priority=0)
        t_high = _admit(router, s0, "t-high", priority=2)
        s0.close(detail="crashed under test")
        asked = []
        real = router.choose_shard

        def choose_shard(spec):
            choice = real(spec)
            asked.append((spec.name, choice and choice[0].name))
            return choice

        router.choose_shard = choose_shard
        router.failover(s0, tick=9, cause="s0 crashed")
        assert asked == [("t-high", "s1"), ("t-low", None),
                         ("t-high", "s1")]
        assert t_high.status == RUNNING and t_high.shard == "s1"
        assert t_low.status == SHED
        s1.server.placement.check()
        # ... and what the fleet holds now is current.
        assert router.choose_shard(_spec("later")) is None

    def test_the_rollback_same_bytes(self):
        def drive():
            router = _fleet()
            s0, s1 = router.shards
            for cls in ("big", "medium"):
                _admit(router, s1, f"filler-{cls}", required=(cls,))
            for index in range(4):
                _admit(router, s0, f"t{index}", priority=index % 3)
            s0.close(detail="crashed under test")
            router.failover(s0, tick=9, cause="s0 crashed")
            return json.dumps({
                "fleet": router.timeline,
                "s1": s1.server.timeline,
                "partitions": {
                    name: sorted(partition) for name, partition
                    in s1.server.placement.partitions.items()},
            }, sort_keys=True)

        shipped = drive()
        assert shipped.count('"shed"') == 2
        with memos_off():
            assert drive() == shipped

    def test_a_breaker_moves_it(self):
        router = _fleet()
        s0, s1 = router.shards
        assert router.choose_shard(_spec("a"))[0] is s0
        assert router.breakers["s0"].trip(0) is not None
        assert router.choose_shard(_spec("b"))[0] is s1
        # Half-open: the gate is the tick's probe draw, not the state.
        breaker = router.breakers["s0"]
        tick = 0
        while not breaker.allows_placement():
            tick += 1
            breaker.advance(tick, beating=True)
        assert router.choose_shard(_spec("c"))[0] is s0

    def test_a_new_generation_moves_it(self):
        assert _choice_across_two_generations(_fleet(n_shards=1)) is None

    def test_a_migrant_skips_the_shard_that_knows_it(self):
        router = _fleet()
        s0, s1 = router.shards
        tenant = _admit(router, s0, "mover")
        s0.server.withdraw("mover", "test", tick=1)
        # s0 is empty and ranks first for everyone else ...
        assert router.choose_shard(_spec("stranger"))[0] is s0
        # ... but not for the tenant it already hosted.
        assert router.choose_shard(tenant.pending_spec())[0] is s1
        assert router.choose_shard(_spec("stranger2"))[0] is s0


# ----------------------------------------------------------------------
def test_every_shard_reports_its_epoch_when_asked():
    driver = SCENARIO.driver()
    with capture() as cap:
        driver.run()
    snapshot = cap.metrics.snapshot()
    gauges = {name: value for name, value in snapshot["gauges"].items()
              if name.startswith("serve.placement_epoch.")}
    assert sorted(gauges) == [f"serve.placement_epoch.{name}"
                              for name in sorted(SCENARIO.shard_names())]
    assert all(value > 0 for value in gauges.values())
    counters = snapshot["counters"]
    assert counters["admission.remembered"] > 0
    assert counters["admission.priced"] > 0

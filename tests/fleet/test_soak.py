"""The fleet acceptance soak: chaos, recovery, determinism.

The issue's bar, verbatim:

* a seeded soak across >= 4 SoCs and >= 12 tenants with a mid-run
  shard kill, a gray failure, and a delayed rejoin, where every tenant
  not deliberately shed completes on a surviving shard;
* the same seed reproduces byte-identical ``FleetReport``s;
* a chaos run with failover enabled strictly beats the same run with
  failover disabled on surviving-tenant p95 latency (measured as the
  per-placement-segment slowdown the fleet is accountable for).
"""

import threading

import pytest

from repro.obs import capture
from repro.core.serialization import write_json_report
from repro.fleet import SHED
from repro.traffic.scenario import WINDOWS_CYCLE, FleetSoakScenario

SCENARIO = FleetSoakScenario()
CHAOS = SCENARIO.chaos()
(CRASH,), (GRAY,), (DEGRADE,) = CHAOS.crashes, CHAOS.grays, CHAOS.degradations


def run_fleet_soak(scenario, failover):
    """``repro fleet``: the chaos soak preset, run; ``(router,
    report)``."""
    driver = scenario.driver(failover=failover)
    return driver.router, driver.run().fleet_report


@pytest.fixture(scope="module")
def soak():
    router, report = run_fleet_soak(SCENARIO, failover=True)
    return router, report


@pytest.fixture(scope="module")
def baseline():
    router, report = run_fleet_soak(SCENARIO, failover=False)
    return router, report


@pytest.fixture(scope="module")
def traced():
    with capture() as cap:
        run_fleet_soak(SCENARIO, failover=True)
        return cap.events, cap.metrics.snapshot()


def _failover_causes(report):
    return {e["shard"]: str(e["cause"])
            for e in report.timeline if e["event"] == "failover"}


class TestRecovery:
    def test_every_non_shed_tenant_completes(self, soak):
        _, report = soak
        statuses = {m.status for m in report.tenants.values()}
        assert statuses <= {"completed", SHED}
        completed = [m for m in report.tenants.values()
                     if m.status == "completed"]
        assert len(completed) >= SCENARIO.n_tenants - 1
        for metric in completed:
            windows = WINDOWS_CYCLE[
                int(metric.tenant.split("-")[1]) % len(WINDOWS_CYCLE)
            ]
            assert metric.windows_served == windows

    def test_all_three_failure_shapes_triggered_failover(self, soak):
        _, report = soak
        causes = _failover_causes(report)
        assert "heartbeat lost" in causes[GRAY.shard]
        assert "crashed" in causes[CRASH.shard]
        assert "SLO breach" in causes[DEGRADE.shard]

    def test_crash_victims_complete_on_other_shards(self, soak):
        _, report = soak
        rescued = [
            m for m in report.tenants.values()
            if m.status == "completed"
            and CRASH.shard in list(m.shards)[:-1]
        ]
        assert rescued
        for metric in rescued:
            assert list(metric.shards)[-1] != CRASH.shard
            assert metric.migrations >= 1

    def test_crashed_shard_rejoins_as_new_generation(self, soak):
        _, report = soak
        assert (report.shards[CRASH.shard]["generation"]
                == 2)
        # The gray shard never actually restarted: same generation.
        assert report.shards[GRAY.shard]["generation"] == 1
        # The rejoined shard re-entered service: placements landed on
        # it at or after the rejoin tick.
        rejoined = [
            e for e in report.timeline
            if e["event"] in ("place", "migrate")
            and e.get("shard") == CRASH.shard
            and e["tick"] >= CRASH.rejoin_tick
        ]
        assert rejoined

    def test_breakers_cycled_and_settled(self, soak):
        _, report = soak
        transitions = [e for e in report.timeline
                       if e["event"] == "breaker"]
        # Each failover tripped a breaker; the survivors closed again.
        assert {e["shard"] for e in transitions} >= {
            GRAY.shard, CRASH.shard,
            DEGRADE.shard,
        }
        assert any(e["to"] == "half-open" for e in transitions)
        for shard in report.shards.values():
            assert shard["state"] == "healthy"
            assert shard["breaker"] == "closed"

    def test_plan_cache_was_shared_across_shards(self, soak, traced):
        # Far more admissions happened than plans were profiled: the
        # fleet reused cached interference tables across shards.  The
        # report counts the plans; the look-ups are host work, counted
        # by the obs counter only.
        _, report = soak
        assert set(report.to_dict()["plan_cache"]) == {"misses", "entries"}
        counters = traced[1]["counters"]
        assert counters["plan_cache.hits"] > report.plan_cache["misses"]


class TestFailoverBeatsStranding:
    def test_failover_strictly_improves_surviving_p95(
        self, soak, baseline
    ):
        _, on_report = soak
        _, off_report = baseline
        assert on_report.surviving_p95_slowdown > 0.0
        assert (on_report.surviving_p95_slowdown
                < off_report.surviving_p95_slowdown)

    def test_disabled_failover_strands_crash_victims(self, baseline):
        _, report = baseline
        failed = [m for m in report.tenants.values()
                  if m.status == "failed"]
        assert failed
        assert all(list(m.shards)[-1] == CRASH.shard
                   for m in failed)
        assert "failover" not in report.counts
        assert "migrate" not in report.counts


class TestDeterminism:
    def test_reports_are_byte_identical(self, soak, tmp_path):
        _, first_report = soak
        _, second_report = run_fleet_soak(SCENARIO, failover=True)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_json_report(first, first_report.to_dict())
        write_json_report(second, second_report.to_dict())
        assert first.read_bytes() == second.read_bytes()

    def test_different_seed_differs(self, soak):
        _, report = soak
        other = FleetSoakScenario(seed=8)
        _, other_report = run_fleet_soak(other, failover=True)
        assert (other_report.to_dict()["timeline"]
                != report.to_dict()["timeline"])


class TestCallerOwnsTheClock:
    def test_run_equals_the_hand_written_step_loop(self, soak):
        _, ran = soak
        router = SCENARIO.driver(failover=True).router
        assert router.chaos.schedule.crashes
        for spec in SCENARIO.tenants():
            router.submit(spec)
        router.open_stepped()
        for tick in range(router.config.max_ticks):
            if router.step(tick):
                break
        assert router.close_stepped().to_dict() == ran.to_dict()

    def test_chaos_soak_leaves_no_thread_behind(self):
        before = threading.enumerate()
        run_fleet_soak(SCENARIO, failover=True)
        assert threading.enumerate() == before


class TestObservability:
    def test_fleet_counters_recorded(self, traced):
        _, snapshot = traced
        counters = snapshot["counters"]
        assert counters["fleet.failovers"] == 3
        assert counters["fleet.migrations"] >= 3
        assert counters["breaker.transitions"] >= 3
        assert counters["fleet.shed"] >= 0

    def test_shard_state_gauges_settle_healthy(self, traced):
        _, snapshot = traced
        gauges = snapshot["gauges"]
        for i in range(SCENARIO.n_shards):
            assert gauges[f"fleet.shard_state.soc{i}"] == 0.0

    def test_fleet_events_ride_named_tracks(self, traced):
        events, _ = traced
        fleet_events = [e for e in events if e.category == "fleet"]
        names = {e.name for e in fleet_events}
        assert {"fleet.tick", "fleet.failover", "fleet.migrate",
                "fleet.breaker", "fleet.shard_state"} <= names
        tracks = {e.track for e in fleet_events}
        assert any(t.startswith("shard:") for t in tracks)
        assert any(t.startswith("tenant:") for t in tracks)

    def test_ticks_nest_serve_layer_spans(self, traced):
        events, _ = traced
        by_id = {e.event_id: e for e in events}
        tick_ids = {e.event_id for e in events
                    if e.name == "fleet.tick"}
        # Shard serving work is parented under the fleet tick spans.
        nested = [e for e in events
                  if e.category == "serve" and e.parent_id in tick_ids]
        assert nested

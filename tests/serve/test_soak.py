"""The acceptance soak: concurrent tenants, drift, determinism.

The issue's bar, verbatim:

* N >= 3 concurrent tenants with injected interference drift, where
  online rescheduling yields *strictly lower* p95 per-item latency for
  the drift-target tenant than the frozen offline schedule;
* admission *rejects* a tenant whose required PUs would violate the
  no-oversubscription invariant;
* the whole run is byte-deterministic for a fixed seed.
"""

import threading

import pytest

from repro.core.serialization import write_json_report
from repro.obs import capture
from repro.serve import COMPLETED, REJECTED
from repro.traffic import SoakScenario

from tests.serve.conftest import run_soak


SCENARIO = SoakScenario(seed=7, windows=30)


@pytest.fixture(scope="module")
def online():
    server, report = run_soak(SCENARIO, reschedule=True)
    return server, report


@pytest.fixture(scope="module")
def frozen():
    server, report = run_soak(SCENARIO, reschedule=False)
    return server, report


class TestConcurrency:
    def test_three_tenants_run_concurrently(self, online):
        server, report = online
        admits = [e for e in server.timeline if e["event"] == "admit"]
        assert len(admits) == 3
        assert all(e["tick"] == 0 for e in admits)
        for name in ("tenant-gpu", "tenant-drift", "tenant-bg"):
            assert report.tenants[name].status == COMPLETED
            assert (report.tenants[name].windows_served
                    == SCENARIO.windows)

    def test_partitions_were_disjoint_throughout(self, online):
        server, report = online
        # Every admit/reschedule event carries the granted partition;
        # replaying them must never show overlap at a single tick.
        held = {}
        for event in server.timeline:
            if event["event"] in ("admit", "reschedule"):
                held[event["tenant"]] = set(event["partition"])
                flattened = [c for part in held.values()
                             for c in part]
                assert len(flattened) == len(set(flattened))
            elif event["event"] in ("complete", "evict", "fail"):
                held.pop(event["tenant"], None)


class TestOversubscriptionRejection:
    def test_probe_is_rejected(self, online):
        _, report = online
        probe = report.tenants["tenant-probe"]
        assert probe.status == REJECTED
        reject = next(e for e in report.timeline
                      if e["event"] == "reject")
        assert reject["tenant"] == "tenant-probe"
        assert "no-oversubscription" in reject["reason"]


class TestOnlineVsFrozen:
    def test_drift_tenant_reschedules_online_only(
        self, online, frozen
    ):
        _, on_report = online
        _, off_report = frozen
        assert on_report.tenants["tenant-drift"].reschedules >= 1
        assert off_report.tenants["tenant-drift"].reschedules == 0

    def test_online_p95_strictly_beats_frozen(self, online, frozen):
        _, on_report = online
        _, off_report = frozen
        on_p95 = on_report.tenants["tenant-drift"].p95_latency_s
        off_p95 = off_report.tenants["tenant-drift"].p95_latency_s
        assert on_p95 > 0.0
        assert on_p95 < off_p95

    def test_drift_is_visible_in_the_frozen_run(self, frozen):
        server, _ = frozen
        history = server.records["tenant-drift"].history
        pre = [w.measured_latency_s for w in history[:2]]
        post = [w.measured_latency_s for w in history[-2:]]
        # Frozen on the drifted class, latency stays degraded.
        assert min(post) > max(pre)


class TestDeterminism:
    def test_reports_are_byte_identical(self, online, tmp_path):
        _, first_report = online
        _, second_report = run_soak(SCENARIO, reschedule=True)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_json_report(first, first_report.to_dict())
        write_json_report(second, second_report.to_dict())
        assert first.read_bytes() == second.read_bytes()

    def test_the_report_counts_plans_not_look_ups(self, online):
        # Look-ups are host work, which the memos move: the obs counter
        # keeps them, the report only what the modelled run did.
        _, report = online
        assert set(report.to_dict()["plan_cache"]) == {"misses", "entries"}
        with capture() as cap:
            run_soak(SCENARIO, reschedule=True)
        counters = cap.metrics.snapshot()["counters"]
        assert counters["plan_cache.hits"] == report.plan_cache["hits"] > 0

    def test_different_seed_differs(self, online, tmp_path):
        _, baseline = online
        other = SoakScenario(seed=8, windows=30)
        _, other_report = run_soak(other)
        assert (other_report.to_dict()["tenants"]
                != baseline.to_dict()["tenants"])


class TestCallerOwnsTheClock:
    def test_run_equals_the_hand_written_step_loop(self, online):
        _, ran = online
        router = SCENARIO.driver(reschedule=True).router
        for spec in SCENARIO.tenants():
            router.submit(spec)
        router.open_stepped()
        for tick in range(router.config.max_ticks):
            if router.step(tick):
                break
        assert router.close_stepped().to_dict() == ran.to_dict()

    def test_soak_leaves_no_thread_behind(self):
        before = threading.enumerate()
        run_soak(SCENARIO, reschedule=True)
        assert threading.enumerate() == before


class TestScenarioValidation:
    def test_needs_enough_windows(self):
        with pytest.raises(Exception, match="8 windows"):
            SoakScenario(windows=4)

    def test_needs_a_baseline_window(self):
        with pytest.raises(Exception, match="baseline"):
            SoakScenario(drift_start_tick=1)

    def test_unknown_platform_class_is_caught(self):
        with pytest.raises(Exception, match="lacks it"):
            SoakScenario(platform_name="raspberry_pi5").driver()

"""The overload acceptance bar, verbatim from the issue:

* at >= 1.5x saturation the seeded soak produces byte-identical
  ``TrafficReport``s across repeated runs;
* with admission control the fleet degrades gracefully: goodput
  plateaus instead of collapsing and the top tier's p99 slowdown stays
  bounded (under its SLO);
* admission control strictly beats admit-everything on goodput;
* replaying a recorded trace reproduces the recorded run
  byte-identically.
"""

import os
import subprocess
import sys
import threading

import pytest

from repro.core.serialization import write_json_report
from repro.traffic import (
    FleetOverloadScenario,
    OVERLOAD_TIERS,
    TrafficTrace,
)

from tests.soaks import overload_curve, run_overload_soak

SCENARIO = FleetOverloadScenario()


@pytest.fixture(scope="module")
def soak_on():
    return run_overload_soak(SCENARIO, admission=True)


@pytest.fixture(scope="module")
def soak_off():
    return run_overload_soak(SCENARIO, admission=False)


class TestOverloadShape:
    def test_scenario_is_overloaded(self, soak_on):
        _, report = soak_on
        assert SCENARIO.load_multiplier >= 1.5
        assert report.offered_windows > report.served_windows
        assert report.rejected > 0

    def test_admit_everything_serves_more_but_worse(
        self, soak_on, soak_off
    ):
        _, on = soak_on
        _, off = soak_off
        assert off.served_windows > on.served_windows
        for tier in OVERLOAD_TIERS:
            assert (on.tiers[tier.name].attainment
                    > off.tiers[tier.name].attainment)


class TestAdmissionGate:
    def test_admission_strictly_beats_admit_everything_on_goodput(
        self, soak_on, soak_off
    ):
        _, on = soak_on
        _, off = soak_off
        assert on.goodput_tasks > off.goodput_tasks
        assert on.goodput_windows > off.goodput_windows

    def test_top_tier_p99_bounded_by_its_slo(self, soak_on):
        _, report = soak_on
        gold = report.tiers["gold"]
        assert gold.served_windows > 0
        assert gold.p99_slowdown <= gold.slo_slowdown
        assert gold.attainment == 1.0

    def test_goodput_plateaus_past_saturation(self):
        points = overload_curve(SCENARIO)
        assert [p["load_multiplier"] for p in points] == [0.5, 1.0, 1.5, 2.0]
        goodput = [p["goodput_tasks"] for p in points]
        # Rising toward saturation...
        assert goodput[0] < goodput[1] < goodput[2]
        # ...then flat-ish: excess load is rejected, not served badly.
        assert goodput[3] >= 0.85 * goodput[2]

    def test_burst_recovers_within_horizon(self, soak_on):
        _, report = soak_on
        assert len(report.recoveries) == 1
        recovery = report.recoveries[0]
        assert recovery.peak_backlog > recovery.pre_burst_backlog
        assert recovery.recovered_tick is not None
        assert recovery.recovery_ticks <= SCENARIO.backlog_patience


class TestByteDeterminism:
    def test_two_soaks_write_identical_report_bytes(
        self, soak_on, tmp_path
    ):
        _, first_report = soak_on
        _, second_report = run_overload_soak(SCENARIO, admission=True)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        write_json_report(first, first_report.to_dict())
        write_json_report(second, second_report.to_dict())
        assert first.read_bytes() == second.read_bytes()

    def test_report_bytes_do_not_depend_on_the_hash_seed(
        self, soak_on, tmp_path
    ):
        """Admission pricing works on sets (busy classes, each
        incumbent's "others"); string hashing - and so set iteration
        order - changes with PYTHONHASHSEED.  The same soak in fresh
        interpreters under two hash seeds must write the bytes this
        process wrote."""
        _, report = soak_on
        here = tmp_path / "here.json"
        write_json_report(here, report.to_dict())
        script = (
            "import sys\n"
            "from repro.core.serialization import write_json_report\n"
            "from repro.traffic import FleetOverloadScenario, evaluate\n"
            "scenario = FleetOverloadScenario()\n"
            "result = scenario.driver().run()\n"
            "report = evaluate(scenario.spec(), scenario.seed, result)\n"
            "write_json_report(sys.argv[1], report.to_dict())\n"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        for hash_seed in ("1", "4242"):
            out = tmp_path / f"hashseed-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.path.abspath(src))
            subprocess.run([sys.executable, "-c", script, str(out)],
                           env=env, check=True, timeout=300)
            assert out.read_bytes() == here.read_bytes(), hash_seed

    def test_replay_reproduces_recorded_run(self, soak_on, tmp_path):
        _, live_report = soak_on
        trace = TrafficTrace.record(SCENARIO.spec(), SCENARIO.seed)
        path = tmp_path / "trace.json"
        trace.save(path)
        _, replayed_report = run_overload_soak(
            SCENARIO, admission=True, trace=TrafficTrace.load(path),
        )
        live = tmp_path / "live.json"
        replay = tmp_path / "replay.json"
        write_json_report(live, live_report.to_dict())
        write_json_report(replay, replayed_report.to_dict())
        assert live.read_bytes() == replay.read_bytes()

    def test_different_seed_differs(self, soak_on):
        _, report = soak_on
        _, other = run_overload_soak(
            FleetOverloadScenario(seed=8), admission=True,
        )
        assert other.to_dict()["per_tick"] != report.to_dict()["per_tick"]


class TestCallerOwnsTheClock:
    def test_traffic_soak_leaves_no_thread_behind(self):
        before = threading.enumerate()
        run_overload_soak(SCENARIO, admission=True)
        assert threading.enumerate() == before


class TestSaturationScalesWithTheFleet:
    def test_default_is_bit_identical_on_two_shards(self):
        assert FleetOverloadScenario().saturation_arrivals_per_tick == 1.1
        assert SCENARIO.spec().arrivals_per_tick == 1.1

    def test_default_scales_with_the_shard_count(self):
        for n_shards in (1, 2, 5, 8):
            scenario = FleetOverloadScenario(n_shards=n_shards)
            assert (scenario.saturation_arrivals_per_tick
                    == 0.55 * n_shards)
            assert (scenario.spec().arrivals_per_tick
                    == 0.55 * n_shards)
        # ... and survives the at_multiplier copy the curve makes.
        assert FleetOverloadScenario(n_shards=8).at_multiplier(
            2.0).saturation_arrivals_per_tick == 0.55 * 8

    def test_an_explicit_value_still_wins(self):
        scenario = FleetOverloadScenario(
            n_shards=8, saturation_arrivals_per_tick=1.1)
        assert scenario.saturation_arrivals_per_tick == 1.1
        assert scenario.spec().arrivals_per_tick == 1.1

    def test_eight_shards_are_offered_four_times_the_load(self):
        from repro.traffic.generator import TrafficGenerator

        def offered(n_shards):
            scenario = FleetOverloadScenario(n_shards=n_shards)
            return len(TrafficGenerator(
                scenario.spec(), seed=scenario.seed).events())

        assert 3.0 < offered(8) / offered(2) < 5.0

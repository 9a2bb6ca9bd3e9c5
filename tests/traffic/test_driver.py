"""Open-loop driver: submission, step-mode harvest, SLO tagging."""

import dataclasses

import pytest

import repro.traffic.driver as driver_module
from repro.errors import TrafficError
from repro.obs import capture
from repro.traffic import (
    OpenLoopDriver,
    TrafficGenerator,
    materialize,
)
from repro.traffic.generator import ArrivalEvent

from tests.soaks import run_overload_soak


@pytest.fixture(scope="module")
def soak(small_scenario_module):
    return run_overload_soak(small_scenario_module, admission=True)


@pytest.fixture(scope="module")
def small_scenario_module():
    # Module-scoped twin of the function-scoped conftest fixture, so
    # the driver tests share one run.
    from repro.traffic import FleetOverloadScenario

    return FleetOverloadScenario(
        ticks=10,
        n_shards=1,
        saturation_arrivals_per_tick=0.8,
        load_multiplier=1.0,
    )


class TestMaterialize:
    def test_builds_each_app_kind(self, small_spec):
        events = TrafficGenerator(small_spec, seed=5).events()
        kinds = set()
        for event in events:
            spec = materialize(event, stage_count=2)
            assert spec.name == event.name
            assert spec.priority == event.priority
            assert spec.windows == event.windows
            assert len(spec.application.stages) == 2
            kinds.add(event.app_kind)
        assert len(kinds) >= 2

    def test_unknown_kind_rejected(self):
        event = ArrivalEvent(
            tick=0, name="user-0", tier="gold", priority=2,
            windows=2, window_tasks=6, app_kind="quantum",
            app_seed=0,
        )
        # Raised per call, never memoised.
        for _ in range(2):
            with pytest.raises(TrafficError, match="unknown application"):
                materialize(event, stage_count=2)

    def test_equal_arrivals_share_one_application(self, small_spec):
        first, *rest = TrafficGenerator(small_spec, seed=5).events()
        twin = dataclasses.replace(first, name="twin", tick=first.tick + 1,
                                   priority=first.priority + 1)
        spec, again = (materialize(first, stage_count=2),
                       materialize(twin, stage_count=2))
        # The per-arrival boundary stays: one spec per call ...
        assert spec is not again and spec != again
        assert (again.name, again.priority) == ("twin", twin.priority)
        # ... around one application per (kind, seed, stage count).
        assert spec.application is again.application
        other_seed = dataclasses.replace(first, app_seed=first.app_seed + 1)
        assert (materialize(other_seed, stage_count=2).application
                is not spec.application)
        assert (materialize(first, stage_count=3).application
                is not spec.application)

    def test_one_constructor_call_per_distinct_application(
            self, small_spec, monkeypatch):
        # Counted where bench/trace.py counts: on the constructors as
        # bound in the driver module, looked up at call time.
        built = []
        for constructor in ("build_synthetic_application",
                            "build_bandwidth_bound_application",
                            "_memory_bound_application"):
            original = getattr(driver_module, constructor)

            def counting(*args, _original=original, **kwargs):
                application = _original(*args, **kwargs)
                built.append(application.name)
                return application

            monkeypatch.setattr(driver_module, constructor, counting)
        driver_module._application.cache_clear()
        events = TrafficGenerator(small_spec, seed=5).events()
        for _ in range(2):
            for event in events:
                materialize(event, stage_count=2)
        distinct = {(e.app_kind, e.app_seed) for e in events}
        assert len(events) > len(distinct)
        assert len(built) == len(set(built)) == len(distinct)
        # Leave no application built by a counting wrapper behind.
        driver_module._application.cache_clear()


class TestDriverRun:
    def test_tick_trajectory_covers_horizon(self, soak):
        result, _ = soak
        assert len(result.per_tick) == result.ticks
        for tick, entry in enumerate(result.per_tick):
            assert entry["tick"] == tick
            assert entry["backlog"] >= 0

    def test_samples_reference_recorded_arrivals(self, soak):
        result, _ = soak
        assert result.samples, "nothing served"
        for sample in result.samples:
            assert sample.tenant in result.arrivals
            assert sample.latency_s > 0.0
            assert sample.slowdown > 0.0
            assert 0 <= sample.tick < result.ticks

    def test_fleet_report_attached(self, soak):
        result, report = soak
        assert result.fleet_report is not None
        assert result.fleet_report.n_shards == report.n_shards == 1

    def test_served_never_exceeds_offered(self, soak):
        _, report = soak
        assert 0 < report.served_windows <= report.offered_windows
        assert report.goodput_windows <= report.served_windows

    def test_driver_validates_horizon(self, small_scenario):
        router = small_scenario.driver().router
        with pytest.raises(TrafficError, match="at least one tick"):
            OpenLoopDriver(router, [], ticks=0)

    def test_counters_balance(self, small_scenario):
        with capture() as cap:
            run_overload_soak(small_scenario, admission=True)
            counters = cap.metrics.snapshot()["counters"]
        assert counters["traffic.arrivals"] > 0
        assert (counters["traffic.served_windows"]
                <= counters["traffic.offered_windows"])


class TestOpenLoopIngress:
    def test_arrival_stream_blind_to_admission(self, small_scenario):
        """Draw-count invariance at the system level: the offered
        stream is identical whether the fleet admits or rejects."""
        on_result, _ = run_overload_soak(small_scenario,
                                         admission=True)
        off_result, _ = run_overload_soak(small_scenario,
                                          admission=False)
        assert on_result.arrivals == off_result.arrivals

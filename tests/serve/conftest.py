"""Shared fixtures and equipment for the serving-layer tests.

Profiling is the expensive step, so the plan cache and its artifacts
are built once per test session and shared read-only.  :func:`both_ways`
runs one serving scenario with the host memos on and off
(``tests.memo_off``) and holds the two to the same bytes.  A serving
run is a one-shard fleet on the soak runner (:mod:`tests.soaks`);
:func:`bare_server` is a shard's server outside a fleet, and
:func:`records` and :func:`observed` read what a server shows.
"""

import contextlib
import json

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.core.plan_cache import PlanCache
from repro.fleet import FleetConfig, serve_fleet
from repro.obs import capture, chrome_trace
from repro.serve import SoakScenario
from repro.serve import server as server_module
from repro.serve.admission import AdmissionController
from repro.serve.server import PipelineServer
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad

from tests.memo_off import comparable, memos_off
from tests.solve_oracle import first_difference


@pytest.fixture
def patience_one(monkeypatch):
    """Evict after one drifted window with no viable switch (as
    shipped: two), so a short soak reaches the eviction fallback."""
    monkeypatch.setattr(server_module, "PATIENCE", 1)


@pytest.fixture(scope="session")
def platform():
    return get_platform("pixel7a", seed=7)


@pytest.fixture(scope="session")
def plan_cache(platform):
    return PlanCache(platform)


@pytest.fixture(scope="session")
def app():
    return build_synthetic_application(seed=11, stage_count=3)


@pytest.fixture(scope="session")
def plan(plan_cache, app):
    return plan_cache.plan_for(app)


def single_class_schedule(plan, pu_class):
    """The packing candidate pinned to one PU class."""
    for candidate in plan.singles:
        if candidate.schedule.class_set == {pu_class}:
            return candidate.schedule
    raise AssertionError(f"no single-class candidate for {pu_class!r}")


def bare_server(platform, plan_cache=None, **knobs):
    """A shard's server, ready to step, under ``FleetConfig(**knobs)``
    (a fresh plan cache unless one is given)."""
    return PipelineServer(platform, FleetConfig(**knobs),
                          plan_cache or PlanCache(platform), "soc0")


def count_pricings(monkeypatch):
    """Real pricings: calls that reach ``AdmissionController.evaluate``."""
    counter = {"evaluate": 0}
    original = AdmissionController.evaluate

    def evaluate(self, *args, **kwargs):
        counter["evaluate"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AdmissionController, "evaluate", evaluate)
    return counter


def count_simulated(monkeypatch):
    """Windows the serving layer's batch really has to simulate."""
    counter = {"windows": 0}
    original = server_module.simulate_batch

    def counting(windows, **kwargs):
        counter["windows"] += sum(
            1 for window in windows if window.remembered is None)
        return original(windows, **kwargs)

    monkeypatch.setattr(server_module, "simulate_batch", counting)
    return counter


def fresh_verdict(server, spec):
    """``spec`` priced from nothing: a new controller with the server's
    settings, so no memo of the server's own is read."""
    mine = server.admission
    controller = AdmissionController(
        server.platform, server.plan_cache,
        max_impact_ratio=mine.max_impact_ratio,
        max_partition_classes=mine.max_partition_classes,
        cumulative_impact=mine.cumulative_impact,
    )
    return controller.evaluate(
        spec, server.placement, server.running_records())


def records(server):
    """Each tenant's outcome on ``server``: status, its detail, windows
    served and reschedules."""
    return {name: [record.status, record.status_detail,
                   record.windows_done, record.reschedules]
            for name, record in server.records.items()}


def observed(server, report=None):
    """Everything a run leaves behind, as comparable bytes (``report``
    is the fleet report of a fleet-driven run)."""
    return json.dumps({
        "report": report.to_dict() if report is not None else None,
        "records": records(server),
        "timeline": server.timeline,
        "partitions": sorted(server.placement.partitions),
        "spans": [repr(span) for span in server.trace_spans],
        "history": {
            name: [repr(window) for window in record.history]
            for name, record in server.records.items()
        },
    }, sort_keys=True, default=repr)


def both_ways(monkeypatch, drive):
    """``drive() -> (server, report)`` with the memos on and off: what
    it leaves behind and its exported trace must agree.  Returns the
    bytes and ``(windows simulated, pricings)`` of each way."""
    simulated = count_simulated(monkeypatch)
    priced = count_pricings(monkeypatch)
    runs = []
    for switch in (contextlib.nullcontext, memos_off):
        simulated["windows"] = priced["evaluate"] = 0
        with switch(), capture() as cap:
            server, report = drive()
        trace = chrome_trace(cap.events, cap.metrics.snapshot())
        runs.append((observed(server, report),
                     comparable(json.dumps(trace).encode()),
                     (simulated["windows"], priced["evaluate"])))
    (shipped, trace, effort), (oracle, oracle_trace, oracle_effort) = runs
    assert first_difference(shipped, oracle) is None
    assert trace == oracle_trace
    return shipped, effort, oracle_effort


def drifting_soak(reschedule, attribution=False):
    """The serving soak plus a drift that turns on and off again, as a
    ``drive`` for :func:`both_ways`."""
    def drive():
        scenario = SoakScenario(seed=7, windows=30)
        router = serve_fleet(scenario, reschedule=reschedule)
        (shard,) = router.shards
        router.config.attribution = attribution
        for spec in scenario.tenants():
            router.submit(spec)
        router.open_stepped()
        for tick in range(router.config.max_ticks):
            if tick == 10:
                # On top of the scenario's open-ended drift: one that
                # turns off again in every tenant's residency.
                shard.server.inject_drift(
                    ExternalLoad({"little": 0.6}, 30.0), end_tick=15)
            if router.step(tick):
                break
        report = router.close_stepped()
        (server,) = shard.closed_servers
        return server, report
    return drive

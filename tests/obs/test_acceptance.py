"""Acceptance tests for the unified observability layer.

A seeded serve soak, run twice under capture, exports byte-identical
Chrome/Perfetto traces containing correlated spans from at least four
layers (profiler, solver, runtime, serve) with resolvable parent links
and a metrics snapshot.
"""

import json

import pytest

from repro.obs import capture, chrome_trace
from repro.serve import SoakScenario

from tests.soaks import run_soak

SCENARIO = SoakScenario(windows=8)


def run_traced_soak():
    with capture() as cap:
        run_soak(SCENARIO, reschedule=True)
        return cap.events, cap.metrics.snapshot()


@pytest.fixture(scope="module")
def soak_trace():
    events, snapshot = run_traced_soak()
    return events, snapshot


class TestSoakTrace:
    def test_spans_from_at_least_four_layers(self, soak_trace):
        events, _ = soak_trace
        categories = {e.category for e in events}
        assert {"profiler", "solver", "runtime", "serve"} <= categories

    def test_every_parent_link_resolves(self, soak_trace):
        events, _ = soak_trace
        ids = {e.event_id for e in events}
        unresolved = [e for e in events
                      if e.parent_id != 0 and e.parent_id not in ids]
        assert unresolved == []

    def test_layers_are_correlated_through_parents(self, soak_trace):
        # A serve window's tick span must (transitively) parent runtime
        # spans: the cross-layer correlation the tracer exists for.
        events, _ = soak_trace
        by_id = {e.event_id: e for e in events}

        def ancestors(event):
            seen = set()
            while event.parent_id != 0 and event.parent_id in by_id:
                event = by_id[event.parent_id]
                seen.add(event.category)
            return seen

        runtime_spans = [e for e in events if e.category == "runtime"]
        assert any("serve" in ancestors(e) for e in runtime_spans)
        solver_spans = [e for e in events if e.category == "solver"]
        assert any("plan_cache" in ancestors(e) for e in solver_spans)

    def test_metrics_snapshot_covers_the_layers(self, soak_trace):
        _, snapshot = soak_trace
        counters = snapshot["counters"]
        assert counters["profiler.cells"] > 0
        assert counters["solver.invocations"] > 0
        assert counters["sim.runs"] > 0
        assert counters["admission.admits"] > 0
        # The probe is refused at the fleet's front door, the only one.
        assert counters["fleet.rejects"] > 0
        assert "serve.window_latency_s" in snapshot["histograms"]

    def test_exported_trace_is_byte_identical_across_runs(self):
        first_events, first_snapshot = run_traced_soak()
        second_events, second_snapshot = run_traced_soak()
        first = json.dumps(chrome_trace(first_events, first_snapshot),
                           sort_keys=True)
        second = json.dumps(chrome_trace(second_events, second_snapshot),
                            sort_keys=True)
        assert first == second

    def test_tenant_tracks_present(self, soak_trace):
        events, _ = soak_trace
        tenants = {e.attr("tenant") for e in events
                   if e.domain == "virtual"}
        assert len(tenants - {None}) >= 2

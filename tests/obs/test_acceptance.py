"""Acceptance tests for the unified observability layer.

The bar from the issue:

* a seeded serve soak, run twice under capture, exports byte-identical
  Chrome/Perfetto traces containing correlated spans from at least four
  layers (profiler, solver, runtime, serve) with resolvable parent
  links and a metrics snapshot;
* a quarantined kernel fault produces a ``FaultReport`` carrying the
  flight-recorder tail.
"""

import json

import numpy as np
import pytest

from repro.obs import capture, chrome_trace
from repro.core import Application, Chunk, Stage
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    KernelFaultSpec,
    RetryPolicy,
    ThreadedPipelineExecutor,
)
from repro.serve import SoakScenario
from repro.soc import WorkProfile

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


def make_faulty_app(n_stages=3):
    def stage_kernel(index):
        def kernel(task):
            task["trace"][index] = 1
        return kernel

    work = WorkProfile(flops=1e3, bytes_moved=1e3, parallelism=4.0)
    stages = [
        Stage(f"s{i}", work,
              {"cpu": stage_kernel(i), "gpu": stage_kernel(i)})
        for i in range(n_stages)
    ]
    return Application(
        "faulty", stages,
        make_task=lambda seed: {"trace": np.zeros(n_stages,
                                                  dtype=np.int64)},
    )


class TestFlightRecorderOnStall:
    """A task whose kernel never recovers is quarantined; its report
    carries the recorder's last moments when one is capturing."""

    CHUNKS = [Chunk(0, 1, "cpu"), Chunk(1, 3, "gpu")]

    def run_quarantined(self):
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=1, stage_index=1, fail_attempts=3),
        ]))
        executor = ThreadedPipelineExecutor(
            make_faulty_app(), self.CHUNKS, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
            isolate_failures=True,
        )
        result = executor.run(4)
        assert [f.task_id for f in result.failures] == [1]
        return injector.report(result.failures)

    def test_fault_report_carries_flight_tail(self):
        with capture():
            report = self.run_quarantined()
        assert report.flight_tail  # the recorder's last moments
        kinds = {entry["kind"] for entry in report.flight_tail}
        assert {"kernel-fault", "retry", "quarantine"} <= kinds
        # The tail survives serialization with the report.
        assert report.to_dict()["flight_tail"] == [
            dict(entry) for entry in report.flight_tail
        ]

    def test_no_capture_means_empty_tail(self):
        assert self.run_quarantined().flight_tail == ()

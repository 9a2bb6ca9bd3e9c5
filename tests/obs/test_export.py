"""Exporter tests: Chrome/Perfetto trace JSON and the Gantt refit."""

import json

import pytest

from repro.core.serialization import write_json_report
from repro.obs import (
    CONTROL,
    VIRTUAL,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    export_gantt,
    record_span,
)


def traced():
    trc = Tracer(enabled=True)
    with trc.span("solver.optimize", "solver", k=4) as solve_id:
        trc.instant("candidate", "solver", rank=0)
    with trc.span("simulator.run", "runtime") as run_id:
        pass
    trc.emit_virtual_spans(
        [record_span(0, "big", 0, 0.0, 1.0, tenant="t-a"),
         record_span(0, "gpu", 0, 0.5, 1.5, tenant="t-b")],
        total_s=1.5, parent_id=run_id,
    )
    return trc, solve_id, run_id


class TestChromeTrace:
    def test_domains_become_processes(self):
        trc, _, _ = traced()
        payload = chrome_trace(trc.events)
        process_names = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(process_names) == 2

    def test_one_thread_per_track(self):
        trc, _, _ = traced()
        payload = chrome_trace(trc.events)
        threads = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        # control: solver + runtime; virtual: one per tenant/pu pair.
        assert set(threads.values()) == {
            "solver", "runtime", "t-a/big", "t-b/gpu"
        }
        assert all(tid >= 1 for _, tid in threads)

    def test_span_and_instant_phases(self):
        trc, solve_id, _ = traced()
        payload = chrome_trace(trc.events)
        data = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        phases = {e["name"]: e["ph"] for e in data}
        assert phases["solver.optimize"] == "X"
        assert phases["candidate"] == "i"
        instant = next(e for e in data if e["ph"] == "i")
        assert instant["s"] == "t"
        assert instant["args"]["parent"] == solve_id

    def test_virtual_times_scale_to_microseconds(self):
        trc, _, _ = traced()
        payload = chrome_trace(trc.events)
        chunk = next(e for e in payload["traceEvents"]
                     if e["name"] == "chunk0/task0")
        assert chunk["ts"] == pytest.approx(0.0)
        assert chunk["dur"] == pytest.approx(1e6)

    def test_parent_links_ride_in_args(self):
        trc, _, run_id = traced()
        payload = chrome_trace(trc.events)
        chunk = next(e for e in payload["traceEvents"]
                     if e["name"] == "chunk0/task0")
        assert chunk["args"]["parent"] == run_id
        assert chunk["args"]["tenant"] == "t-a"

    def test_metrics_snapshot_embedded(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("solver.nodes", 17)
        trc, _, _ = traced()
        payload = chrome_trace(trc.events, reg.snapshot())
        assert payload["otherData"]["metrics"]["counters"] == {
            "solver.nodes": 17
        }
        assert payload["otherData"]["generator"] == "repro.obs"

    def test_export_is_deterministic(self):
        a = json.dumps(chrome_trace(traced()[0].events), sort_keys=True)
        b = json.dumps(chrome_trace(traced()[0].events), sort_keys=True)
        assert a == b

    def test_empty_event_list(self):
        payload = chrome_trace([])
        assert [e["ph"] for e in payload["traceEvents"]] == ["M", "M"]
        json.dumps(payload)


class TestExportGantt:
    def test_virtual_spans_render_with_tenant_sections(self):
        trc, _, _ = traced()
        text = export_gantt(trc.events, width=30)
        assert "tenant t-a:" in text
        assert "tenant t-b:" in text
        assert "chunk 0 big" in text
        assert "chunk 0 gpu" in text

    def test_interleaved_tenants_stay_separated(self):
        trc = Tracer(enabled=True)
        # Windows genuinely interleave in virtual time.
        trc.emit_virtual_spans(
            [record_span(0, "big", 0, 0.0, 1.0, tenant="t-a"),
             record_span(0, "big", 0, 0.5, 1.5, tenant="t-b"),
             record_span(0, "big", 1, 1.0, 2.0, tenant="t-a")],
            total_s=2.0,
        )
        text = export_gantt(trc.events, width=20)
        assert text.index("tenant t-a:") < text.index("tenant t-b:")
        a_rows = text.split("tenant t-b:")[0]
        assert "0" in a_rows and "1" in a_rows

    def test_control_events_do_not_leak_into_chart(self):
        trc = Tracer(enabled=True)
        with trc.span("solver.optimize", "solver"):
            pass
        assert "empty" in export_gantt(trc.events)


class TestEmptyAndZeroEventTracks:
    """Exports must stay well-formed when a capture saw nothing, or
    when a track exists with no renderable events (a fleet-soak tenant
    that never got a window leaves exactly this shape behind)."""

    def test_empty_capture_chrome_trace(self):
        import repro.obs as obs

        with obs.capture() as cap:
            snapshot = cap.metrics.snapshot()
        payload = chrome_trace(cap.events, snapshot)
        assert [e["ph"] for e in payload["traceEvents"]] == ["M", "M"]
        assert payload["otherData"]["metrics"] == snapshot
        json.dumps(payload)

    def test_empty_capture_gantt(self):
        import repro.obs as obs

        with obs.capture() as cap:
            pass
        assert "empty" in export_gantt(cap.events)

    def test_instant_only_track_has_no_spans_but_exports(self):
        # A tenant that never gets a window contributes arrival
        # instants on its tier track and nothing else.
        trc = Tracer(enabled=True)
        trc.instant("traffic.arrival", "traffic",
                    track="tier:gold", tenant="starved")
        payload = chrome_trace(trc.events)
        data = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert [e["ph"] for e in data] == ["i"]
        threads = {
            e["args"]["name"] for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "tier:gold" in threads
        json.dumps(payload)

    def test_instant_only_track_gantt_is_empty(self):
        trc = Tracer(enabled=True)
        trc.instant("traffic.arrival", "traffic",
                    track="tier:gold", tenant="starved")
        assert "empty" in export_gantt(trc.events)

    def test_mixed_served_and_starved_tenants(self):
        # One tenant has real windows, the other only an admission
        # instant: the chart renders the served one and the starved
        # tenant simply contributes no rows (no crash, no ghost row).
        trc = Tracer(enabled=True)
        trc.instant("traffic.arrival", "traffic",
                    track="tier:gold", tenant="starved")
        trc.emit_virtual_spans(
            [record_span(0, "big", 0, 0.0, 1.0, tenant="served")],
            total_s=1.0,
        )
        text = export_gantt(trc.events, width=20)
        assert "tenant served:" in text
        assert "starved" not in text
        payload = chrome_trace(trc.events)
        json.dumps(payload)

    def test_empty_metrics_snapshot_embeds(self):
        reg = MetricsRegistry(enabled=True)
        payload = chrome_trace([], reg.snapshot())
        assert "series" not in payload["otherData"]["metrics"]
        json.dumps(payload)


class TestWriteTrace:
    def test_written_file_is_valid_json(self, tmp_path):
        trc, _, _ = traced()
        path = tmp_path / "trace.json"
        write_json_report(path, chrome_trace(trc.events))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in data["traceEvents"])

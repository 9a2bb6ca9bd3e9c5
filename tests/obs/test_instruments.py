"""Unit tests for the observability instruments (tracer, metrics) and
the capture scope that installs them."""

import threading

import pytest

from repro.obs import (
    CONTROL,
    ROOT,
    VIRTUAL,
    MetricsRegistry,
    Tracer,
    capture,
    metrics,
    tracer,
)
from repro.obs.spans import record_span


class TestTracerSpans:
    def test_disabled_tracer_records_nothing(self):
        trc = Tracer(enabled=False)
        with trc.span("a", "x") as span_id:
            trc.instant("b", "x")
        assert span_id == ROOT
        assert trc.events == []

    def test_disabled_spans_nest_and_propagate_errors(self):
        trc = Tracer(enabled=False)
        with pytest.raises(KeyError):
            with trc.span("outer", "x", k=1) as outer:
                with trc.span("inner", "x") as inner:
                    assert (outer, inner) == (ROOT, ROOT)
                    raise KeyError("boom")
        assert trc.events == [] and trc.current_span_id() == ROOT

    def test_nested_spans_link_parents(self):
        trc = Tracer(enabled=True)
        with trc.span("outer", "x") as outer_id:
            with trc.span("inner", "x") as inner_id:
                pass
        by_name = {e.name: e for e in trc.events}
        assert by_name["outer"].parent_id == ROOT
        assert by_name["inner"].parent_id == outer_id
        assert inner_id != outer_id

    def test_children_nest_strictly_in_ticks(self):
        trc = Tracer(enabled=True)
        with trc.span("outer", "x"):
            with trc.span("inner", "x"):
                pass
        by_name = {e.name: e for e in trc.events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer.ts < inner.ts
        assert inner.ts + inner.dur < outer.ts + outer.dur

    def test_instant_parented_to_open_span(self):
        trc = Tracer(enabled=True)
        with trc.span("outer", "x") as outer_id:
            trc.instant("ping", "x", tick=3)
        instant = next(e for e in trc.events if e.kind == "instant")
        assert instant.parent_id == outer_id
        assert instant.dur == 0.0
        assert instant.attr("tick") == 3

    def test_sibling_spans_share_parent(self):
        trc = Tracer(enabled=True)
        with trc.span("outer", "x") as outer_id:
            with trc.span("a", "x"):
                pass
            with trc.span("b", "x"):
                pass
        parents = {e.name: e.parent_id for e in trc.events}
        assert parents["a"] == parents["b"] == outer_id

    def test_attrs_sorted_and_readable(self):
        trc = Tracer(enabled=True)
        with trc.span("s", "x", zebra=1, alpha=2):
            pass
        event = trc.events[0]
        assert [k for k, _ in event.attrs] == ["alpha", "zebra"]
        assert event.attr("zebra") == 1
        assert event.attr("missing", 9) == 9

    def test_annotate_reaches_the_innermost_open_span_only(self):
        trc = Tracer(enabled=True)
        trc.annotate(lost=1)  # outside any span: nothing to attach to
        with trc.span("outer", "x", phase="a"):
            with trc.span("inner", "x"):
                trc.annotate(found=3)
            trc.annotate(found=7, phase="b")
        attrs = {e.name: dict(e.attrs) for e in trc.events}
        assert attrs == {"inner": {"found": 3},
                         "outer": {"found": 7, "phase": "b"}}
        Tracer(enabled=False).annotate(found=1)  # disabled: a no-op

    def test_span_stacks_are_per_thread(self):
        trc = Tracer(enabled=True)
        seen = {}

        def worker():
            with trc.span("threaded", "x"):
                seen["parent"] = trc.events  # open span not yet closed
                seen["current"] = trc.current_span_id()

        with trc.span("main", "x"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        threaded = next(e for e in trc.events if e.name == "threaded")
        # The other thread's span must not adopt this thread's open span.
        assert threaded.parent_id == ROOT


class TestTracerVirtual:
    def spans(self, tenant=None):
        return [
            record_span(0, "big", 0, 0.0, 1.0, tenant=tenant),
            record_span(1, "gpu", 0, 1.0, 2.5, tenant=tenant),
        ]

    def test_virtual_spans_carry_tags(self):
        trc = Tracer(enabled=True)
        trc.emit_virtual_spans(self.spans("t-a"), total_s=2.5)
        events = trc.events
        assert all(e.domain == VIRTUAL for e in events)
        assert events[0].track == "t-a/big"
        assert events[0].name == "chunk0/task0"
        assert events[1].attr("pu") == "gpu"
        assert events[1].attr("tenant") == "t-a"

    def test_cursor_lays_runs_back_to_back(self):
        trc = Tracer(enabled=True)
        trc.emit_virtual_spans(self.spans(), total_s=2.5)
        trc.emit_virtual_spans(self.spans(), total_s=2.5)
        events = trc.events
        assert events[0].ts == 0.0
        assert events[2].ts == pytest.approx(2.5)  # second run shifted
        assert events[3].ts == pytest.approx(3.5)

    def test_untenanted_spans_use_run_track(self):
        trc = Tracer(enabled=True)
        trc.emit_virtual_spans(self.spans(), total_s=2.5)
        assert trc.events[0].track == "run/big"

    def test_parent_id_propagates(self):
        trc = Tracer(enabled=True)
        with trc.span("run", "runtime") as run_id:
            pass
        trc.emit_virtual_spans(self.spans(), 2.5, parent_id=run_id)
        virtual = [e for e in trc.events if e.domain == VIRTUAL]
        assert all(e.parent_id == run_id for e in virtual)


class TestMetricsRegistry:
    def test_disabled_registry_stays_empty(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a")
        reg.gauge("b", 2.0)
        reg.observe("c", 3.0)
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_counters_accumulate(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("retry.count")
        reg.counter("retry.count", 2)
        assert reg.snapshot()["counters"]["retry.count"] == 3

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge("depth", 4.0)
        reg.gauge("depth", 1.0)
        assert reg.snapshot()["gauges"]["depth"] == 1.0

    def test_histogram_summary(self):
        reg = MetricsRegistry(enabled=True)
        for value in (1.0, 2.0, 3.0, 4.0):
            reg.observe("lat", value)
        summary = reg.snapshot()["histograms"]["lat"]
        assert summary["count"] == 4
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["p50"] == pytest.approx(2.5)

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry(enabled=True)
        for name in ("zeta", "alpha", "mid"):
            reg.counter(name)
        assert list(reg.snapshot()["counters"]) == [
            "alpha", "mid", "zeta"
        ]


class TestCaptureScope:
    def test_globals_disabled_by_default(self):
        assert not tracer().enabled
        assert not metrics().enabled

    def test_capture_installs_and_restores(self):
        before = (tracer(), metrics())
        with capture() as cap:
            assert tracer() is cap.tracer
            assert metrics() is cap.metrics
            assert cap.tracer.enabled
            with cap.tracer.span("s", "x"):
                pass
            assert len(cap.events) == 1
        assert (tracer(), metrics()) == before

    def test_capture_restores_on_error(self):
        before = tracer()
        with pytest.raises(RuntimeError):
            with capture():
                raise RuntimeError("boom")
        assert tracer() is before

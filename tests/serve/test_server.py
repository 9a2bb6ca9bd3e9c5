"""PipelineServer lifecycle: admission, queue retry, run, close-out."""

import threading

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.errors import PipelineError, ServeError
from repro.serve import (
    COMPLETED,
    FAILED,
    REJECTED,
    DriftSpec,
    PipelineServer,
    ServerConfig,
    TenantSpec,
)


def make_app(seed):
    return build_synthetic_application(seed=seed, stage_count=3)


def make_server(platform, **config_kwargs):
    config_kwargs.setdefault("max_ticks", 16)
    return PipelineServer(
        platform, seed=7, config=ServerConfig(**config_kwargs)
    )


class TestDriftSpec:
    def test_negative_start_rejected(self):
        with pytest.raises(ServeError, match="start_tick"):
            DriftSpec(start_tick=-1)

    def test_end_must_follow_start(self):
        with pytest.raises(ServeError, match="end_tick"):
            DriftSpec(start_tick=3, end_tick=3)

    def test_active_window(self):
        drift = DriftSpec(start_tick=2, end_tick=4,
                          busy={"big": 0.5})
        assert [drift.active_at(t) for t in range(5)] == [
            False, False, True, True, False
        ]

    def test_open_ended_drift(self):
        drift = DriftSpec(start_tick=2)
        assert drift.active_at(10_000)


class TestValidation:
    def test_config_needs_a_tick(self):
        with pytest.raises(ServeError, match="max_ticks"):
            ServerConfig(max_ticks=0)

    def test_duplicate_name_rejected(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1)))
        with pytest.raises(ServeError, match="already submitted"):
            server.submit(TenantSpec(name="a",
                                     application=make_app(2)))

    def test_drift_accepted_until_close(self, platform):
        server = make_server(platform)
        server.inject_drift(DriftSpec(start_tick=1))
        server.open_stepped()
        server.step(0)
        server.inject_drift(DriftSpec(start_tick=2))
        server.close_stepped()
        with pytest.raises(ServeError, match="drained"):
            server.inject_drift(DriftSpec(start_tick=3))

    def test_run_after_open_stepped_rejected(self, platform):
        server = make_server(platform)
        server.open_stepped()
        with pytest.raises(ServeError, match="already started"):
            server.run()
        # The refused run() left the open server alone.
        assert server.step(0)
        server.close_stepped()

    def test_submit_after_drain_rejected(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        server.run()
        with pytest.raises(ServeError, match="drained"):
            server.submit(TenantSpec(name="b",
                                     application=make_app(2)))


class TestServing:
    def test_two_tenants_complete(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=2, priority=1))
        server.submit(TenantSpec(name="b", application=make_app(2),
                                 windows=3))
        report = server.run()
        assert report.tenants["a"].status == COMPLETED
        assert report.tenants["b"].status == COMPLETED
        assert report.tenants["a"].windows_served == 2
        assert report.tenants["b"].windows_served == 3
        admits = [e for e in report.timeline if e["event"] == "admit"]
        assert [e["tenant"] for e in admits] == ["a", "b"]
        assert all(e["tick"] == 0 for e in admits)

    def test_trace_spans_are_tenant_tagged(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        server.run()
        assert server.trace_spans
        assert {span.tenant for span in server.trace_spans} == {"a"}

    def test_trace_spans_keep_last_window_most_recently_served_last(
            self, platform):
        server = make_server(platform, reschedule=False)
        server.submit(TenantSpec(name="long", application=make_app(1),
                                 windows=3))
        server.submit(TenantSpec(name="short", application=make_app(2),
                                 windows=1))

        def tenant_runs():
            # Consecutive-duplicate-free tenant sequence of the view.
            runs = []
            for span in server.trace_spans:
                if not runs or runs[-1] != span.tenant:
                    runs.append(span.tenant)
            return runs

        def spans_of(name):
            return [s for s in server.trace_spans if s.tenant == name]

        server.open_stepped()
        server.step(0)
        assert tenant_runs() == ["long", "short"]
        short_window = spans_of("short")
        one_long_window = len(spans_of("long"))
        # "short" completed at tick 0; "long" keeps running and moves
        # behind it, replacing (not appending to) its earlier window.
        server.step(1)
        assert server.records["short"].status == COMPLETED
        assert tenant_runs() == ["short", "long"]
        assert spans_of("short") == short_window
        assert len(spans_of("long")) == one_long_window
        assert server.step(2)
        server.close_stepped()
        assert tenant_runs() == ["short", "long"]
        assert len(spans_of("long")) == one_long_window

    def test_queued_tenant_admitted_after_release(self, platform):
        server = make_server(platform, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        report = server.run()
        assert report.tenants["first"].status == COMPLETED
        assert report.tenants["second"].status == COMPLETED
        queue_events = [e for e in report.timeline
                        if e["event"] == "queue"]
        assert [e["tenant"] for e in queue_events] == ["second"]
        # The retry admitted it only once the GPU was free again.
        second_admit = next(
            e for e in report.timeline
            if e["event"] == "admit" and e["tenant"] == "second"
        )
        assert second_admit["tick"] >= 2

    def test_tick_budget_exhaustion_fails_loudly(self, platform):
        server = make_server(platform, max_ticks=2)
        server.submit(TenantSpec(name="slow", application=make_app(1),
                                 windows=50))
        report = server.run()
        assert report.tenants["slow"].status == "failed"
        record = server.records["slow"]
        assert "tick budget exhausted" in record.status_detail
        # Close-out released the partition.
        assert not server.placement.partitions

    def test_undrained_queue_becomes_backpressure_reject(
        self, platform
    ):
        server = make_server(platform, max_ticks=1, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=5,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=5,
            required_classes=frozenset({"gpu"}),
        ))
        server.run()
        assert server.records["second"].status == REJECTED
        assert "backpressure" in server.records["second"].status_detail

    def test_queued_tenant_waits_for_its_class_and_completes(
        self, platform
    ):
        # The queue holds a tenant until the GPU frees, however long.
        server = make_server(platform, max_ticks=32, queue_capacity=1)
        server.submit(TenantSpec(
            name="first", application=make_app(1), windows=12,
            required_classes=frozenset({"gpu"}),
        ))
        server.submit(TenantSpec(
            name="second", application=make_app(1), windows=2,
            required_classes=frozenset({"gpu"}),
        ))
        report = server.run()
        assert report.tenants["second"].status == COMPLETED

    def test_report_is_available_midway(self, platform):
        server = make_server(platform)
        server.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=1))
        report = server.run()
        assert report.platform == platform.name
        assert report.plan_cache["entries"] >= 1
        assert report.ticks >= 1


class TestRunAborts:
    @pytest.fixture
    def server(self, platform):
        server = make_server(platform, queue_capacity=1)
        for name in ("holder", "waiter"):
            server.submit(TenantSpec(
                name=name, application=make_app(1), windows=12,
                required_classes=frozenset({"gpu"}),
            ))
        return server

    def test_unexpected_tick_error_propagates_and_closes(
            self, server, tick_raises):
        tick_raises(server, 2, KeyError("boom"))
        with pytest.raises(KeyError, match="boom"):
            server.run()
        assert server.ticks_executed == 2
        with pytest.raises(ServeError, match="drained"):
            server.submit(TenantSpec(name="late",
                                     application=make_app(2)))

    def test_repro_error_aborts_after_close_out(self, server,
                                                tick_raises):
        before = threading.enumerate()
        tick_raises(server, 2, PipelineError("kernel wedged"))
        with pytest.raises(
                ServeError,
                match="serve loop aborted: kernel wedged") as raised:
            server.run()
        assert isinstance(raised.value.__cause__, PipelineError)
        assert threading.enumerate() == before
        holder, waiter = (server.records[n] for n in ("holder",
                                                      "waiter"))
        assert (holder.status, holder.status_detail) == (
            FAILED, "kernel wedged")
        assert waiter.status == REJECTED
        assert "backpressure" in waiter.status_detail
        assert not server.placement.partitions
        report = server.report()
        assert report.ticks == 2
        assert report.tenants["holder"].windows_served == 2

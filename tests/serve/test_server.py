"""Serving lifecycle: admission, backlog wait, run, close-out - a
one-shard fleet on the soak runner, and the bare server it steps."""

import threading

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.errors import FleetError, PipelineError
from repro.fleet import DegradeSpec, FleetConfig, one_shard_fleet
from repro.serve import COMPLETED, FAILED, REJECTED, TenantSpec
from repro.soc.interference import ExternalLoad
from repro.traffic import OpenLoopDriver

from tests.serve.conftest import bare_server
from tests.soaks import one_shard


def make_app(seed):
    return build_synthetic_application(seed=seed, stage_count=3)


def make_router(**config_kwargs):
    config_kwargs.setdefault("max_ticks", 16)
    return one_shard_fleet("pixel7a", 7, 7, FleetConfig(**config_kwargs))


def placed_at(report, name):
    return next(e["tick"] for e in report.timeline
                if e["event"] == "place" and e["tenant"] == name)


class TestDriftSpec:
    """A drift is a chaos degradation's window, handed to the server as
    its outside load and end tick."""

    def test_negative_start_rejected(self):
        with pytest.raises(FleetError, match="start_tick"):
            DegradeSpec("soc0", start_tick=-1)

    def test_end_must_follow_start(self):
        with pytest.raises(FleetError, match="end_tick"):
            DegradeSpec("soc0", start_tick=3, end_tick=3)

    def test_active_window(self, platform):
        # Handed over before tick 2, ending at 4: on for ticks 2 and 3.
        latency = drifted_latencies(platform, end_tick=4)
        assert latency[:2] == latency[4:] == [latency[0]] * 2
        assert latency[2] == latency[3] != latency[0]

    def test_open_ended_drift(self, platform):
        latency = drifted_latencies(platform, end_tick=None)
        assert latency[2:] == [latency[2]] * 4
        assert latency[2] != latency[0]


def drifted_latencies(platform, end_tick):
    """Six windows of one tenant, a drift handed over before tick 2."""
    server = bare_server(platform, reschedule=False)
    server.try_admit(TenantSpec(name="a", application=make_app(1),
                                windows=6, window_tasks=4), 0)
    for tick in range(6):
        if tick == 2:
            busy = dict.fromkeys(platform.schedulable_classes(), 0.6)
            server.inject_drift(ExternalLoad(busy), end_tick)
        server.step(tick)
    return [row.measured_latency_s for row in server.records["a"].history]


class TestValidation:
    def test_config_needs_a_tick(self):
        with pytest.raises(FleetError, match="max_ticks"):
            FleetConfig(max_ticks=0)

    def test_duplicate_name_rejected(self):
        router = make_router()
        router.submit(TenantSpec(name="a", application=make_app(1)))
        with pytest.raises(FleetError, match="already submitted"):
            router.submit(TenantSpec(name="a",
                                     application=make_app(2)))

    def test_run_after_open_stepped_rejected(self):
        router = make_router()
        router.open_stepped()
        spec = TenantSpec(name="a", application=make_app(1), windows=1)
        with pytest.raises(FleetError, match="already started"):
            OpenLoopDriver(router, [spec]).run()
        # The refused run() left the open fleet alone.
        assert router.step(0)
        router.close_stepped()

    def test_submit_after_drain_rejected(self):
        router, _, _ = one_shard([TenantSpec(
            name="a", application=make_app(1), windows=1)])
        with pytest.raises(FleetError, match="drained"):
            router.submit(TenantSpec(name="b",
                                     application=make_app(2)))


class TestServing:
    def test_two_tenants_complete(self):
        _, server, report = one_shard([
            TenantSpec(name="a", application=make_app(1), windows=2,
                       priority=1),
            TenantSpec(name="b", application=make_app(2), windows=3),
        ])
        assert report.tenants["a"].status == COMPLETED
        assert report.tenants["b"].status == COMPLETED
        assert report.tenants["a"].windows_served == 2
        assert report.tenants["b"].windows_served == 3
        admits = [e for e in server.timeline if e["event"] == "admit"]
        assert [e["tenant"] for e in admits] == ["a", "b"]
        assert all(e["tick"] == 0 for e in admits)
        assert placed_at(report, "a") == placed_at(report, "b") == 0

    def test_trace_spans_are_tenant_tagged(self):
        _, server, _ = one_shard([TenantSpec(
            name="a", application=make_app(1), windows=1)])
        assert server.trace_spans
        assert {span.tenant for span in server.trace_spans} == {"a"}

    def test_trace_spans_keep_last_window_most_recently_served_last(
            self, platform):
        server = bare_server(platform, reschedule=False)

        def tenant_runs():
            # Consecutive-duplicate-free tenant sequence of the view.
            runs = []
            for span in server.trace_spans:
                if not runs or runs[-1] != span.tenant:
                    runs.append(span.tenant)
            return runs

        def spans_of(name):
            return [s for s in server.trace_spans if s.tenant == name]

        for name, seed, windows in (("long", 1, 3), ("short", 2, 1)):
            server.try_admit(TenantSpec(name=name,
                                        application=make_app(seed),
                                        windows=windows), 0)
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
        server.close()
        assert tenant_runs() == ["short", "long"]
        assert len(spans_of("long")) == one_long_window

    def test_queued_tenant_admitted_after_release(self):
        router, server, report = one_shard([
            TenantSpec(name=name, application=make_app(1), windows=2,
                       required_classes=frozenset({"gpu"}))
            for name in ("first", "second")
        ], queue_capacity=1)
        assert report.tenants["first"].status == COMPLETED
        assert report.tenants["second"].status == COMPLETED
        # The backlog placed it only once the GPU was free again.
        assert placed_at(report, "first") == 0
        assert placed_at(report, "second") >= 2

    def test_never_serveable_arrival_is_rejected_at_once(self):
        # A bounded backlog waits only for what a shard could ever take.
        router, _, report = one_shard([TenantSpec(
            name="npu-job", application=make_app(1), windows=2,
            required_classes=frozenset({"npu"}))])
        assert report.tenants["npu-job"].status == REJECTED
        (reject,) = [e for e in report.timeline if e["event"] == "reject"]
        assert reject["tick"] == 0 and report.ticks == 1
        assert "not schedulable" in reject["reason"]

    def test_tick_budget_exhaustion_fails_loudly(self):
        router, server, report = one_shard([TenantSpec(
            name="slow", application=make_app(1), windows=50)],
            max_ticks=2)
        assert report.tenants["slow"].status == "failed"
        assert "tick budget exhausted" in (
            router.tenants["slow"].status_detail)
        assert "tick budget exhausted" in (
            server.records["slow"].status_detail)
        # Close-out released the partition.
        assert not server.placement.partitions

    def test_undrained_queue_becomes_backpressure_reject(self):
        router, _, report = one_shard([
            TenantSpec(name=name, application=make_app(1), windows=5,
                       required_classes=frozenset({"gpu"}))
            for name in ("first", "second")
        ], max_ticks=1, queue_capacity=1)
        assert report.tenants["second"].status == REJECTED
        assert "backlog" in router.tenants["second"].status_detail

    def test_queued_tenant_waits_for_its_class_and_completes(self):
        # The backlog holds a tenant until the GPU frees, however long.
        _, _, report = one_shard([
            TenantSpec(name="first", application=make_app(1),
                       windows=12, required_classes=frozenset({"gpu"})),
            TenantSpec(name="second", application=make_app(1),
                       windows=2, required_classes=frozenset({"gpu"})),
        ], max_ticks=32, queue_capacity=1)
        assert report.tenants["second"].status == COMPLETED

    def test_report_is_available_midway(self, platform):
        router = make_router()
        router.submit(TenantSpec(name="a", application=make_app(1),
                                 windows=2))
        router.open_stepped()
        router.step(0)
        report = router.report()
        assert router.shards[0].platform.name == platform.name
        assert report.plan_cache["entries"] >= 1
        assert report.ticks == 1
        assert report.tenants["a"].status == "running"
        router.close_stepped()


class TestRunAborts:
    @pytest.fixture
    def driver(self):
        router = make_router(queue_capacity=1, backlog_patience=16)
        return OpenLoopDriver(router, [
            TenantSpec(name=name, application=make_app(1), windows=12,
                       required_classes=frozenset({"gpu"}))
            for name in ("holder", "waiter")
        ])

    def test_unexpected_tick_error_propagates_and_closes(
            self, driver, tick_raises):
        router = driver.router
        tick_raises(router, 2, KeyError("boom"))
        with pytest.raises(KeyError, match="boom"):
            driver.run()
        assert router.ticks_executed == 2
        with pytest.raises(FleetError, match="drained"):
            router.submit(TenantSpec(name="late",
                                     application=make_app(2)))

    def test_repro_error_aborts_after_close_out(self, driver,
                                                tick_raises):
        router = driver.router
        before = threading.enumerate()
        tick_raises(router, 2, PipelineError("kernel wedged"))
        with pytest.raises(
                FleetError,
                match="fleet loop aborted: kernel wedged") as raised:
            driver.run()
        assert isinstance(raised.value.__cause__, PipelineError)
        assert threading.enumerate() == before
        holder, waiter = (router.tenants[n] for n in ("holder",
                                                      "waiter"))
        assert (holder.status, holder.status_detail) == (
            FAILED, "kernel wedged")
        assert waiter.status == REJECTED
        assert "backlog" in waiter.status_detail
        (server,) = router.shards[0].closed_servers
        assert not server.placement.partitions
        report = router.report()
        assert report.ticks == 2
        assert report.tenants["holder"].windows_served == 2

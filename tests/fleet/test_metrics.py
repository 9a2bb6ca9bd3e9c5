"""Fleet metrics: per-tenant summaries, slowdown normalization, report."""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.fleet import FleetTenant, FleetTenantMetrics
from repro.fleet.metrics import (
    FleetReport,
    surviving_p95,
    surviving_p95_slowdown,
)
from repro.serve.tenant import COMPLETED, TenantSpec, WindowSample


@pytest.fixture(scope="module")
def app():
    return build_synthetic_application(seed=11, stage_count=2)


def _tenant(app, name="t", status=COMPLETED, arrival=0):
    spec = TenantSpec(name=name, application=app, windows=4,
                      window_tasks=4)
    return FleetTenant(spec=spec, arrival=arrival, status=status)


def _serve(tenant, *latencies, window_tasks=1):
    """One placement segment's windows, as a shard would write them."""
    for index, latency in enumerate(latencies):
        tenant.windows.append(WindowSample(
            tick=index, tenant=tenant.name, window_index=index,
            measured_latency_s=latency, isolated_s=0.010,
            window_tasks=window_tasks, shard=tenant.shard or "",
        ))


class TestTenantMetrics:
    def test_zero_window_tenant_renders_na(self, app):
        tenant = _tenant(app, status="rejected")
        payload = FleetTenantMetrics.from_tenant(tenant).to_dict()
        assert payload["windows_served"] == 0
        for key in ("mean_latency_s", "p50_latency_s",
                    "p95_latency_s", "max_latency_s"):
            assert payload[key] == "n/a"

    def test_served_tenant_summarizes_samples(self, app):
        tenant = _tenant(app)
        tenant.place("s0")
        _serve(tenant, 0.010, 0.030, window_tasks=2)
        assert tenant.windows_served == 2
        metric = FleetTenantMetrics.from_tenant(tenant)
        assert metric.mean_latency_s == pytest.approx(0.020)
        assert metric.max_latency_s == pytest.approx(0.030)
        assert list(metric.shards) == ["s0"]


class TestSlowdowns:
    def test_each_segment_normalizes_to_its_own_baseline(self, app):
        tenant = _tenant(app)
        tenant.place("s0")
        _serve(tenant, 0.010, 0.020)
        tenant.place("s1")  # segment 2 starts again at window 0
        _serve(tenant, 0.040, 0.080)
        assert tenant.slowdowns() == pytest.approx(
            [1.0, 2.0, 1.0, 2.0]
        )
        assert tenant.migrations == 1

    def test_empty_trailing_segment_is_skipped(self, app):
        tenant = _tenant(app)
        tenant.place("s0")
        _serve(tenant, 0.010)
        tenant.place("s1")  # displaced before serving anything there
        assert tenant.slowdowns() == pytest.approx([1.0])

    def test_zero_baseline_degrades_to_unity(self, app):
        tenant = _tenant(app)
        tenant.place("s0")
        _serve(tenant, 0.0, 0.5)
        assert tenant.slowdowns() == pytest.approx([1.0, 1.0])


class TestFleetAggregates:
    def test_surviving_percentiles_ignore_casualties(self, app):
        survivor = _tenant(app, name="a")
        survivor.place("s0")
        _serve(survivor, 0.010, 0.015)
        survivor.status = COMPLETED
        casualty = _tenant(app, name="b", status="failed", arrival=1)
        _serve(casualty, 9.0)
        casualty.status = "failed"
        tenants = {"a": survivor, "b": casualty}
        assert surviving_p95(tenants) < 1.0
        # Slowdowns [1.0, 1.5] -> p95 interpolates the two samples.
        assert surviving_p95_slowdown(tenants) == pytest.approx(1.475)

    def test_no_survivors_yields_zero(self, app):
        casualty = _tenant(app, name="b", status="failed")
        assert surviving_p95({"b": casualty}) == 0.0
        assert surviving_p95_slowdown({"b": casualty}) == 0.0


class TestReportShape:
    def _report(self, tenants):
        return FleetReport(
            seed=7, ticks=3, n_shards=1, failover_enabled=True,
            tenants=tenants, shards={}, timeline=[], chaos_events=[],
            surviving_p95_s=0.0, surviving_p95_slowdown=0.0,
            plan_cache={},
        )

    def test_no_survivors_serializes_na(self, app):
        metric = FleetTenantMetrics.from_tenant(
            _tenant(app, status="failed")
        )
        payload = self._report({"t": metric}).to_dict()
        assert payload["surviving_p95_s"] == "n/a"
        assert payload["surviving_p95_slowdown"] == "n/a"
        assert payload["surviving_tenants"] == 0

    def test_tenants_serialize_sorted(self, app):
        tenants = {
            name: FleetTenantMetrics.from_tenant(
                _tenant(app, name=name)
            )
            for name in ("zeta", "alpha", "mid")
        }
        payload = self._report(tenants).to_dict()
        assert list(payload["tenants"]) == ["alpha", "mid", "zeta"]

"""Serving metrics: percentiles, per-tenant summaries, report shape."""

import numpy as np
import pytest

from repro.errors import ReproError, ServeError
from repro.fleet import FleetReport, FleetTenant, FleetTenantMetrics
from repro.serve import (
    COMPLETED,
    REJECTED,
    RUNNING,
    TenantRecord,
    TenantSpec,
    WindowSample,
    attainment,
    percentile,
)


class TestPercentile:
    def test_empty_samples_rejected(self):
        with pytest.raises(ReproError, match="empty"):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ReproError, match="out of"):
            percentile([1.0], 101.0)

    def test_negative_q_rejected(self):
        with pytest.raises(ReproError, match="out of"):
            percentile([1.0], -0.5)

    def test_single_sample(self):
        assert percentile([3.5], 95.0) == 3.5

    def test_q_zero_is_minimum(self):
        assert percentile([5.0, 1.0, 3.0], 0.0) == 1.0

    def test_q_hundred_is_maximum(self):
        assert percentile([5.0, 1.0, 3.0], 100.0) == 5.0

    def test_duplicate_samples_are_flat(self):
        # A degenerate distribution: every quantile is the same value,
        # with no interpolation drift between equal neighbours.
        samples = [2.0] * 7
        for q in (0.0, 12.5, 50.0, 95.0, 100.0):
            assert percentile(samples, q) == 2.0

    def test_two_sample_interpolation(self):
        # With two samples the rank is q/100 exactly, so the result is
        # a straight blend of min and max.
        assert percentile([0.0, 10.0], 25.0) == pytest.approx(2.5)
        assert percentile([0.0, 10.0], 50.0) == pytest.approx(5.0)
        assert percentile([10.0, 0.0], 95.0) == pytest.approx(9.5)

    def test_unsorted_input_handled(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    @pytest.mark.parametrize("q", [0.0, 25.0, 50.0, 95.0, 100.0])
    def test_matches_numpy_linear_interpolation(self, q):
        rng = np.random.default_rng(123)
        samples = list(rng.random(101))
        assert percentile(samples, q) == pytest.approx(
            float(np.percentile(samples, q))
        )


def window(latency_s, isolated_s=1.0, index=0, window_tasks=10):
    return WindowSample(
        tick=index, tenant="t", window_index=index,
        measured_latency_s=latency_s, isolated_s=isolated_s,
        window_tasks=window_tasks,
    )


def windows(*slowdowns):
    return [window(slowdown) for slowdown in slowdowns]


class TestWindowSample:
    def test_reports_state_the_latency_to_nine_decimals(self):
        row = window(0.0123456789123, isolated_s=0.01)
        assert row.latency_s == 0.012345679
        assert row.measured_latency_s == 0.0123456789123

    def test_slowdown_is_stated_latency_over_the_reference(self):
        row = window(0.0123456789123, isolated_s=0.01)
        assert row.slowdown == 0.012345679 / 0.01

    def test_slo_boundary_counts_as_met(self):
        row = window(0.015, isolated_s=0.01)
        assert row.attains(row.slowdown)
        assert row.attains(2.0) and not row.attains(1.4)


class TestAttainment:
    def test_empty_samples_raise_structured_error(self):
        with pytest.raises(ServeError, match="empty"):
            attainment([], 1.0)
        # Catchable at the API boundary like every library error.
        with pytest.raises(ReproError):
            attainment([], 1.0)

    def test_non_positive_slo_rejected(self):
        with pytest.raises(ServeError, match="positive"):
            attainment(windows(1.0), 0.0)
        with pytest.raises(ServeError, match="positive"):
            attainment(windows(1.0), -2.0)

    def test_all_attaining(self):
        assert attainment(windows(0.1, 0.2, 0.3), 0.5) == 1.0

    def test_all_breaching(self):
        assert attainment(windows(0.6, 0.7, 0.8), 0.5) == 0.0

    def test_exact_boundary_counts_as_met(self):
        # "p95 <= 40 ms" includes 40 ms itself.
        assert attainment(windows(0.5), 0.5) == 1.0
        assert attainment(windows(0.5, 1.0), 0.5) == 0.5

    def test_mixed_fraction(self):
        samples = windows(0.1, 0.2, 0.3, 0.9)
        assert attainment(samples, 0.35) == pytest.approx(0.75)


def record_with_history(app, name="t", latencies=(), window_tasks=10,
                        status=COMPLETED):
    record = TenantRecord(
        spec=TenantSpec(name=name, application=app,
                        window_tasks=window_tasks),
        status=status,
    )
    for index, latency in enumerate(latencies):
        record.history.append(window(
            latency, index=index, window_tasks=window_tasks,
        ))
    return record


def summary(record):
    """The report's per-tenant summary of ``record``'s windows."""
    return FleetTenantMetrics.from_tenant(FleetTenant(
        spec=record.spec, arrival=0, status=record.status,
        windows=list(record.history)))


class TestTenantMetrics:
    def test_unserved_tenant_zeroes(self, app):
        metrics = summary(record_with_history(app))
        assert metrics.windows_served == 0
        assert metrics.p95_latency_s == 0.0

    def test_summary_over_history(self, app):
        record = record_with_history(
            app, latencies=[0.010, 0.010, 0.030]
        )
        metrics = summary(record)
        assert metrics.windows_served == 3
        # 3 windows x 10 tasks: p50 sits in the fast bulk, max on the
        # slow window.
        assert metrics.p50_latency_s == pytest.approx(0.010)
        assert metrics.max_latency_s == pytest.approx(0.030)
        assert (metrics.mean_latency_s
                == pytest.approx((0.010 + 0.010 + 0.030) / 3))

    def test_to_dict_rounds(self, app):
        record = record_with_history(app, latencies=[1 / 3])
        payload = summary(record).to_dict()
        assert payload["p95_latency_s"] == round(1 / 3, 9)

    def test_to_dict_renders_na_for_zero_window_tenants(self, app):
        # A rejected (or still-pending) tenant served nothing: the
        # report must say "n/a", not 0.0 ("infinitely fast").
        record = record_with_history(app, status=REJECTED)
        payload = summary(record).to_dict()
        assert payload["windows_served"] == 0
        for key in ("mean_latency_s", "p50_latency_s",
                    "p95_latency_s", "max_latency_s"):
            assert payload[key] == "n/a"

    def test_served_tenant_renders_numbers(self, app):
        record = record_with_history(app, latencies=[0.020])
        payload = summary(record).to_dict()
        assert all(
            isinstance(payload[key], float)
            for key in ("mean_latency_s", "p50_latency_s",
                        "p95_latency_s", "max_latency_s")
        )

    def test_percentile_error_is_a_structured_repro_error(self):
        # Callers that guard whole report builds catch the base class.
        with pytest.raises(ReproError):
            percentile([], 95.0)


class TestReportShape:
    def test_tenants_serialize_sorted(self, app):
        metrics = {
            name: summary(
                record_with_history(app, name=name)
            )
            for name in ("zeta", "alpha", "mid")
        }
        report = FleetReport(
            seed=7, ticks=3, n_shards=1, failover_enabled=False,
            tenants=metrics, shards={}, timeline=[], chaos_events=[],
            surviving_p95_s=0.0, surviving_p95_slowdown=0.0,
            plan_cache={},
        )
        assert list(report.to_dict()["tenants"]) == [
            "alpha", "mid", "zeta"
        ]

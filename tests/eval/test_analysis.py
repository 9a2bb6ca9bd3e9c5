"""Tests for the schedule-analysis tools."""

import pytest

from repro.core import Application, Schedule, Stage
from repro.core.profiler import ProfilingTable
from repro.errors import SchedulingError
from repro.eval import (
    explain_schedule,
    format_affinity_report,
    format_explanation,
    speedup_bounds,
    stage_affinity_report,
)
from repro.soc import WorkProfile


@pytest.fixture
def case():
    app = Application(
        "demo",
        [Stage.model_only(f"s{i}", WorkProfile(flops=1.0, bytes_moved=1.0))
         for i in range(3)],
    )
    entries = {
        ("s0", "big"): 1.0, ("s0", "gpu"): 4.0,
        ("s1", "big"): 6.0, ("s1", "gpu"): 2.0,
        ("s2", "big"): 3.0, ("s2", "gpu"): 3.0,
    }
    table = ProfilingTable(
        application="demo", platform="test", mode="interference",
        entries=entries, stage_names=("s0", "s1", "s2"),
        pu_classes=("big", "gpu"),
    )
    return app, table


class TestAffinity:
    def test_best_and_worst(self, case):
        app, table = case
        report = stage_affinity_report(app, table)
        by_stage = {entry.stage: entry for entry in report}
        assert by_stage["s0"].best_pu == "big"
        assert by_stage["s0"].worst_pu == "gpu"
        assert by_stage["s0"].spread == pytest.approx(4.0)
        assert by_stage["s1"].best_pu == "gpu"

    def test_format(self, case):
        app, table = case
        text = format_affinity_report(stage_affinity_report(app, table))
        assert "spread" in text
        assert "4.0x" in text


class TestExplanation:
    def test_breakdown_and_bottleneck(self, case):
        app, table = case
        schedule = Schedule.from_assignments(["big", "gpu", "gpu"])
        explanation = explain_schedule(app, schedule, table)
        assert explanation.predicted_latency_s == pytest.approx(5.0)
        assert explanation.bottleneck_chunk == "s1..s2"
        assert explanation.gapness_s == pytest.approx(4.0)
        # serial = 1 + 2 + 3 on the assigned PUs
        assert explanation.serial_latency_s == pytest.approx(6.0)
        assert explanation.pipelining_gain == pytest.approx(6.0 / 5.0)

    def test_fractions_sum_sanely(self, case):
        app, table = case
        schedule = Schedule.from_assignments(["big", "gpu", "gpu"])
        explanation = explain_schedule(app, schedule, table)
        fractions = [row[3] for row in explanation.chunk_rows]
        assert max(fractions) == pytest.approx(1.0)

    def test_format(self, case):
        app, table = case
        schedule = Schedule.from_assignments(["big", "gpu", "gpu"])
        text = format_explanation(explain_schedule(app, schedule, table))
        assert "bottleneck" in text
        assert "pipelining gain" in text


class TestSpeedupBounds:
    def test_bounds_computed(self, case):
        app, table = case
        bounds = speedup_bounds(app, table)
        # best serial: big = 1+6+3 = 10, gpu = 4+2+3 = 9 -> 9.
        assert bounds.best_serial_s == pytest.approx(9.0)
        # per-stage best: 1, 2, 3 -> ideal = max(3, 6/2) = 3.
        assert bounds.ideal_parallel_s == pytest.approx(3.0)
        assert bounds.max_speedup == pytest.approx(3.0)

    def test_bound_dominates_any_real_schedule(self, case):
        app, table = case
        bounds = speedup_bounds(app, table)
        from tests.core.cp_optimizer import contiguous_schedules

        for schedule in contiguous_schedules(3, ("big", "gpu")):
            latency = schedule.predicted_latency(app, table)
            assert latency >= bounds.ideal_parallel_s - 1e-12

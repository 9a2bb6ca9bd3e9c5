"""Tests for BT-Optimizer: constraint encoding, optimality, diversity."""

import math

import pytest

from repro.core import Application, Stage
from repro.core.optimizer import BTOptimizer, ScheduleCandidate
from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.obs import capture
from repro.soc import WorkProfile
from tests.core.cp_optimizer import contiguous_schedules


def make_app(n):
    return Application(
        "app",
        [Stage.model_only(f"s{i}", WorkProfile(flops=1e6, bytes_moved=1e5,
                                               parallelism=8.0))
         for i in range(n)],
    )


def make_table(app, latencies):
    """latencies: dict pu -> list of per-stage times."""
    pus = tuple(latencies)
    entries = {
        (stage, pu): latencies[pu][i]
        for i, stage in enumerate(app.stage_names)
        for pu in pus
    }
    return ProfilingTable(
        application=app.name, platform="test", mode="interference",
        entries=entries, stage_names=app.stage_names, pu_classes=pus,
    )


@pytest.fixture
def simple_case():
    app = make_app(4)
    table = make_table(app, {
        "big": [1.0, 4.0, 2.0, 1.0],
        "gpu": [2.0, 1.0, 1.0, 2.0],
    })
    return app, table


class TestUtilization:
    def test_gapness_optimum_matches_bruteforce(self, simple_case):
        app, table = simple_case
        optimizer = BTOptimizer(app, table)
        best = optimizer.optimize_utilization()
        brute = min(
            s.gapness(app, table)
            for s in contiguous_schedules(app.num_stages, table.pu_classes)
        )
        assert best.gapness_s == pytest.approx(brute)

    def test_homogeneous_has_zero_gapness_when_one_pu(self):
        app = make_app(3)
        table = make_table(app, {"big": [1.0, 2.0, 3.0]})
        best = BTOptimizer(app, table).optimize_utilization()
        assert best.gapness_s == 0.0
        assert best.schedule.assignments == ("big",) * 3

    def test_respects_max_chunk_bound(self, simple_case):
        app, table = simple_case
        optimizer = BTOptimizer(app, table, max_chunk_time_s=4.5)
        best = optimizer.optimize_utilization()
        times = best.schedule.chunk_times(app, table)
        assert max(times.values()) <= 4.5 + 1e-9

    def test_infeasible_chunk_bound_raises(self, simple_case):
        app, table = simple_case
        optimizer = BTOptimizer(app, table, max_chunk_time_s=0.5)
        with pytest.raises(SchedulingError):
            optimizer.optimize_utilization()


class TestLatencyEnumeration:
    def test_first_candidate_is_global_best_within_filter(self,
                                                          simple_case):
        app, table = simple_case
        optimizer = BTOptimizer(app, table, k=5)
        result = optimizer.optimize()
        feasible = [
            s for s in contiguous_schedules(app.num_stages, table.pu_classes)
            if s.gapness(app, table) <= result.gap_threshold_s + 1e-12
        ]
        brute_best = min(s.predicted_latency(app, table) for s in feasible)
        assert result.best.predicted_latency_s == pytest.approx(brute_best)

    def test_candidates_sorted_by_predicted_latency(self, simple_case):
        app, table = simple_case
        result = BTOptimizer(app, table, k=8).optimize()
        latencies = [c.predicted_latency_s for c in result.candidates]
        assert latencies == sorted(latencies)

    def test_candidates_are_distinct(self, simple_case):
        app, table = simple_case
        result = BTOptimizer(app, table, k=10).optimize()
        assignments = {c.schedule.assignments for c in result.candidates}
        assert len(assignments) == len(result.candidates)

    def test_all_candidates_contiguous(self, simple_case):
        app, table = simple_case
        result = BTOptimizer(app, table, k=10).optimize()
        for candidate in result.candidates:
            assert candidate.schedule.is_contiguous()

    def test_fills_with_unfiltered_when_space_small(self):
        """Two PUs, three stages: only 2 + 2*2 = 6 contiguous schedules;
        asking for 6 must deliver all of them even past the gap filter."""
        app = make_app(3)
        table = make_table(app, {
            "big": [1.0, 1.0, 10.0],
            "gpu": [5.0, 5.0, 1.0],
        })
        result = BTOptimizer(app, table, k=6, gap_slack=0.01).optimize()
        assert len(result.candidates) == 6

    def test_stops_when_space_exhausted(self):
        app = make_app(2)
        table = make_table(app, {"big": [1.0, 1.0], "gpu": [1.0, 1.0]})
        # Space: 2 homogeneous + 2 splits = 4 < k.
        result = BTOptimizer(app, table, k=50).optimize()
        assert len(result.candidates) == 4

    def test_k_one(self, simple_case):
        app, table = simple_case
        result = BTOptimizer(app, table, k=1).optimize()
        assert len(result.candidates) == 1

    def test_gap_filter_excludes_unbalanced(self):
        """With zero slack, only gapness-optimal schedules lead the list."""
        app = make_app(4)
        table = make_table(app, {
            "big": [1.0, 1.0, 1.0, 1.0],
            "gpu": [1.0, 1.0, 1.0, 1.0],
        })
        result = BTOptimizer(app, table, k=3, gap_slack=0.0).optimize()
        assert result.candidates[0].gapness_s <= result.gap_threshold_s

    def test_latency_only_mode_via_infinite_slack(self, simple_case):
        app, table = simple_case
        unfiltered = BTOptimizer(app, table, k=1,
                                 gap_slack=math.inf).optimize()
        brute_best = min(
            s.predicted_latency(app, table)
            for s in contiguous_schedules(app.num_stages, table.pu_classes)
        )
        assert unfiltered.best.predicted_latency_s == pytest.approx(
            brute_best
        )


class TestTiers:
    def test_tiers_group_similar_latencies(self):
        candidates = [
            ScheduleCandidate(rank=i,
                              schedule=Schedule.homogeneous(1, "big"),
                              predicted_latency_s=lat, gapness_s=0.0)
            for i, lat in enumerate([10.0, 10.3, 10.5, 17.0, 17.2])
        ]
        from repro.core.optimizer import OptimizationResult
        result = OptimizationResult(
            application="a", platform="p", candidates=candidates,
            gap_threshold_s=1.0, utilization_optimum=None,
        )
        tiers = result.tiers()
        assert [len(t) for t in tiers] == [3, 2]


class TestValidation:
    def test_bad_k(self, simple_case):
        app, table = simple_case
        with pytest.raises(SchedulingError):
            BTOptimizer(app, table, k=0)

    def test_repeated_pu_class_rejected(self):
        """A table listing one PU class twice would plan it as two PUs
        and only fail later, on contiguity; it fails at construction,
        naming the class."""
        app = make_app(3)
        table = ProfilingTable(
            application=app.name, platform="test", mode="interference",
            entries={(stage, pu): 1.0 for stage in app.stage_names
                     for pu in ("a", "b")},
            stage_names=app.stage_names, pu_classes=("a", "a", "b"),
        )
        with pytest.raises(SchedulingError, match="PU class 'a'"):
            BTOptimizer(app, table)

    def test_repeated_stage_rejected(self):
        app = make_app(3)
        table = ProfilingTable(
            application=app.name, platform="test", mode="interference",
            entries={(stage, "big"): 1.0 for stage in ("s0", "s1")},
            stage_names=("s0", "s1", "s0"), pu_classes=("big",),
        )
        with pytest.raises(SchedulingError, match="stage 's0'"):
            BTOptimizer(app, table)

    def test_negative_latency_rejected(self):
        app = make_app(3)
        table = make_table(app, {"big": [1.0, -0.5, 3.0],
                                 "gpu": [2.0, 1.0, 1.0]})
        with pytest.raises(SchedulingError, match=">= 0"):
            BTOptimizer(app, table)

    def test_stage_mismatch(self, simple_case):
        _, table = simple_case
        other = make_app(5)
        with pytest.raises(SchedulingError):
            BTOptimizer(other, table)

    def test_solver_stats_accumulate(self, simple_case):
        app, table = simple_case
        optimizer = BTOptimizer(app, table, k=3)
        result = optimizer.optimize()
        # Level 1, the filtered K-best and at most one top-up.
        assert 2 <= result.solver_invocations <= 3

    def test_one_span_per_level_two_phase(self, simple_case):
        """Not one per candidate: the filtered K-best, then the top-up
        only when the filter left fewer than k."""
        app, table = simple_case
        for k in (1, 50):
            with capture() as cap:
                result = BTOptimizer(app, table, k=k).optimize()
            phases = [
                (event.attr("phase"), event.attr("found"))
                for event in cap.tracer.events
                if event.name == "solver.candidate_round"
            ]
            assert [phase for phase, _ in phases] \
                == ["filtered", "topup"][:result.solver_invocations - 1]
            assert sum(found for _, found in phases) \
                == len(result.candidates)
        assert len(phases) == 2  # k = 50 is past what the filter admits

"""Tests for guarded optimization: wall budgets and graceful degradation.

A bigger application or a slower device must never turn the optimizer
into a hang: with ``time_budget_s`` set, budget expiry yields a greedy
best-PU schedule flagged ``degraded`` - an answer, not an exception.
"""

import pytest

from repro.apps import build_octree_application
from repro.core import BetterTogether
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import ProfilingTable
from repro.core.stage import Application, Stage
from repro.errors import SchedulingError, SolverTimeoutError
from repro.obs import capture
from repro.solver import Model, Solver
from repro.soc import WorkProfile, get_platform


def make_app(n):
    return Application(
        "app",
        [Stage.model_only(f"s{i}", WorkProfile(flops=1e6, bytes_moved=1e5,
                                               parallelism=8.0))
         for i in range(n)],
    )


def make_table(app, latencies):
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
def case():
    app = make_app(4)
    table = make_table(app, {
        "big": [1.0, 4.0, 2.0, 1.0],
        "gpu": [2.0, 1.0, 1.0, 2.0],
    })
    return app, table


class TestSolverBudget:
    def build_wide_model(self):
        """Many free booleans: enumeration visits 2^24 assignments."""
        model = Model()
        variables = [model.new_bool(f"b{i}") for i in range(24)]
        model.add_clause(variables)
        return model

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            Solver(Model(), time_budget_s=0.0)
        with pytest.raises(ValueError):
            Solver(Model(), time_budget_s=-1.0)

    def test_enumerate_stops_at_deadline(self):
        solver = Solver(self.build_wide_model(), time_budget_s=0.05)
        with pytest.raises(SolverTimeoutError, match="wall-clock"):
            for _ in solver.enumerate():
                pass

    def test_minimize_stops_at_deadline(self):
        model = self.build_wide_model()
        solver = Solver(model, time_budget_s=0.05)
        with pytest.raises(SolverTimeoutError):
            solver.minimize(lambda values: sum(values))

    def test_no_budget_is_unlimited(self):
        model = Model()
        a = model.new_bool("a")
        model.add_clause([a])
        assert Solver(model).solve() is not None

    def test_wall_time_recorded_when_the_budget_burns(self):
        solver = Solver(self.build_wide_model(), max_decisions=50)
        with pytest.raises(SolverTimeoutError, match="decision"):
            solver.minimize(lambda values: sum(values))
        assert solver.stats.wall_seconds > 0
        assert solver.stats.decisions == 51
        burnt = solver.stats.wall_seconds
        with pytest.raises(SolverTimeoutError):
            for _ in solver.enumerate():
                pass
        assert solver.stats.wall_seconds > burnt

    def test_decision_budget_is_per_invocation(self):
        """A solver reused across rounds gets ``max_decisions`` afresh
        each round, not whatever the earlier rounds left over."""
        model = Model()
        variables = [model.new_bool(f"b{i}") for i in range(5)]
        solver = Solver(model, max_decisions=6)
        for _ in range(3):
            solution = solver.solve()
            assert solution is not None
            model.forbid_assignment(
                [v if solution[v] else ~v for v in variables]
            )
        assert solver.stats.decisions > 2 * 6


class TestGreedyFallback:
    def test_budget_validated(self, case):
        app, table = case
        with pytest.raises(SchedulingError):
            BTOptimizer(app, table, time_budget_s=0.0)

    def test_greedy_assignment_contiguous_best_pu(self, case):
        app, table = case
        optimizer = BTOptimizer(app, table)
        assignment = optimizer.greedy_assignment()
        # Stage 0 is fastest on big; from stage 1 on, gpu wins and the
        # big chunk is closed (C2), so the tail stays on gpu.
        assert assignment == (0, 1, 1, 1)

    def test_expired_budget_degrades_not_raises(self, case):
        app, table = case
        optimizer = BTOptimizer(app, table, k=4, time_budget_s=1e-9)
        result = optimizer.optimize()
        assert result.degraded
        assert result.utilization_optimum is None
        assert result.candidates  # the greedy schedule, at minimum
        greedy = optimizer.greedy_assignment()
        schedules = [c.schedule.assignments for c in result.candidates]
        assert tuple(table.pu_classes[c] for c in greedy) in schedules
        for candidate in result.candidates:
            assert candidate.schedule.is_contiguous()

    def test_generous_budget_stays_exact(self, case):
        app, table = case
        unbudgeted = BTOptimizer(app, table, k=4).optimize()
        budgeted = BTOptimizer(app, table, k=4,
                               time_budget_s=60.0).optimize()
        assert not budgeted.degraded
        assert ([c.schedule.assignments for c in budgeted.candidates]
                == [c.schedule.assignments for c in unbudgeted.candidates])

    def test_decision_budget_also_degrades(self, case):
        app, table = case
        result = BTOptimizer(app, table, k=4,
                             max_decisions=1).optimize()
        assert result.degraded

    def test_burnt_invocation_is_accounted(self, case):
        """The invocation that exhausts the budget still ran: it counts,
        its wall time counts, and its search shows in the metrics."""
        app, table = case
        with capture() as cap:
            result = BTOptimizer(app, table, k=5,
                                 max_decisions=5).optimize()
        counters = cap.metrics.snapshot()["counters"]
        assert result.degraded
        assert result.solver_invocations == 1
        assert result.solver_wall_s > 0
        assert counters["solver.invocations"] == 1
        assert counters["solver.nodes"] == 6
        assert counters["solver.propagations"] > 0

    def test_budget_spent_before_the_first_solve_counts_nothing(self, case):
        app, table = case
        result = BTOptimizer(app, table, k=4,
                             time_budget_s=1e-9).optimize()
        assert result.degraded
        assert result.solver_invocations == 0

    def test_decision_budget_spans_rounds_per_invocation(self, case):
        """One solver serves level 1, the filtered K-best and the
        top-up; a budget each of those calls fits in must not degrade
        the plan because the three add up to more."""
        app, table = case
        exact = BTOptimizer(app, table, k=4).optimize()
        with capture() as cap:
            per_call = BTOptimizer(app, table, k=4,
                                   max_decisions=20).optimize()
        assert not per_call.degraded
        assert cap.metrics.snapshot()["counters"]["solver.nodes"] > 20
        assert per_call.solver_invocations == exact.solver_invocations == 3
        assert ([c.schedule.assignments for c in per_call.candidates]
                == [c.schedule.assignments for c in exact.candidates])

    @pytest.mark.parametrize("max_decisions", [8, 10, 12])
    def test_interrupted_level_two_salvages_its_incumbents(
            self, case, max_decisions):
        """The budget fires inside the filtered K-best: what that one
        traversal had found so far joins the greedy schedule."""
        app, table = case
        exact = {
            c.schedule.assignments: c
            for c in BTOptimizer(app, table, k=20).optimize().candidates
        }
        optimizer = BTOptimizer(app, table, k=20,
                                max_decisions=max_decisions)
        result = optimizer.optimize()
        assert result.degraded
        assert result.solver_invocations == 2  # level 1 + the burnt call
        assert result.solver_wall_s > 0
        greedy = tuple(table.pu_classes[c]
                       for c in optimizer.greedy_assignment())
        pool = [c.schedule.assignments for c in result.candidates]
        assert greedy in pool and len(pool) == len(set(pool)) >= 2
        for candidate in result.candidates:
            twin = exact[candidate.schedule.assignments]
            assert candidate.predicted_latency_s == twin.predicted_latency_s
            assert candidate.gapness_s == twin.gapness_s
        latencies = [c.predicted_latency_s for c in result.candidates]
        assert latencies == sorted(latencies)
        assert [c.rank for c in result.candidates] == list(range(len(pool)))

    def test_degraded_candidates_rank_by_latency(self, case):
        app, table = case
        result = BTOptimizer(app, table, k=4,
                             time_budget_s=1e-9).optimize()
        latencies = [c.predicted_latency_s for c in result.candidates]
        assert latencies == sorted(latencies)
        assert [c.rank for c in result.candidates] \
            == list(range(len(result.candidates)))


class TestFrameworkBudget:
    def test_budget_plumbs_through_framework(self):
        framework = BetterTogether(get_platform("jetson_orin_nano"),
                                   repetitions=2, k=3, eval_tasks=4,
                                   time_budget_s=1e-9)
        app = build_octree_application()
        table = framework.profile(app)
        result = framework.optimize(app, table)
        assert result.degraded

    def test_degraded_campaign_still_deploys(self):
        """Budget expiry must not break the end-to-end flow: the greedy
        schedule autotunes, validates and deploys like any other."""
        framework = BetterTogether(get_platform("jetson_orin_nano"),
                                   repetitions=2, k=3, eval_tasks=4,
                                   time_budget_s=1e-9)
        plan = framework.run(build_octree_application())
        assert plan.optimization.degraded
        assert plan.schedule.is_contiguous()
        assert plan.autotune.measured_best.measured_latency_s > 0

"""Tests for the solver's budgets: ``max_decisions`` and
``time_budget_s`` bound each entry-point call, and a call that runs out
raises :class:`SolverTimeoutError` instead of hanging."""

import pytest

from repro.errors import SolverTimeoutError
from repro.solver import Model, Solver


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

"""Tests for the DPLL search engine: solve, enumerate, minimize."""

import itertools

import pytest

from repro.errors import ModellingError, SolverTimeoutError
from repro.solver import Model, Solver, UNASSIGNED


def build_pigeonhole(holes, pigeons):
    """Pigeons-to-holes model: each pigeon in exactly one hole, holes hold
    at most one pigeon.  Infeasible iff pigeons > holes."""
    model = Model()
    x = {
        (p, h): model.new_bool(f"p{p}h{h}")
        for p in range(pigeons)
        for h in range(holes)
    }
    for p in range(pigeons):
        model.add_exactly_one([x[p, h] for h in range(holes)])
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            model.add_clause([~x[p, h], ~x[q, h]])
    return model, x


class TestSolve:
    def test_simple_sat(self):
        model = Model()
        a = model.new_bool("a")
        b = model.new_bool("b")
        model.add_clause([a, b])
        model.add_clause([~a])
        solution = Solver(model).solve()
        assert solution is not None
        assert not solution[a]
        assert solution[b]

    def test_unsat_returns_none(self):
        model = Model()
        a = model.new_bool("a")
        model.add_clause([a])
        model.add_clause([~a])
        assert Solver(model).solve() is None

    def test_pigeonhole_feasible(self):
        model, _ = build_pigeonhole(holes=3, pigeons=3)
        assert Solver(model).solve() is not None

    def test_pigeonhole_infeasible(self):
        model, _ = build_pigeonhole(holes=2, pigeons=3)
        assert Solver(model).solve() is None

    def test_lookup_by_name(self):
        model = Model()
        a = model.new_bool("a")
        model.add_clause([a])
        solution = Solver(model).solve()
        assert solution["a"] is True

    def test_decision_budget(self):
        model, _ = build_pigeonhole(holes=6, pigeons=6)
        solver = Solver(model, max_decisions=1)
        with pytest.raises(SolverTimeoutError):
            list(solver.enumerate())


class TestEnumerate:
    def test_counts_all_solutions(self):
        # Exactly-one over 4 variables has exactly 4 solutions.
        model = Model()
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)
        solutions = list(Solver(model).enumerate())
        assert len(solutions) == 4
        picked = {tuple(s[x] for x in xs) for s in solutions}
        assert len(picked) == 4

    def test_limit_respected(self):
        model = Model()
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)
        assert len(list(Solver(model).enumerate(limit=2))) == 2

    def test_permutation_count(self):
        # 3 pigeons into 3 holes: 3! = 6 solutions.
        model, _ = build_pigeonhole(holes=3, pigeons=3)
        assert len(list(Solver(model).enumerate())) == 6

    def test_blocking_clause_excludes_solution(self):
        model = Model()
        xs = [model.new_bool(f"x{i}") for i in range(3)]
        model.add_exactly_one(xs)
        first = Solver(model).solve()
        true_vars = [x for x in xs if first[x]]
        model.forbid_assignment(true_vars)
        remaining = list(Solver(model).enumerate())
        assert len(remaining) == 2
        for solution in remaining:
            assert [solution[x] for x in xs] != [first[x] for x in xs]

    def test_iterated_blocking_exhausts_space(self):
        model = Model()
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)
        found = 0
        while True:
            solution = Solver(model).solve()
            if solution is None:
                break
            found += 1
            model.forbid_assignment([x for x in xs if solution[x]])
        assert found == 4


class TestMinimize:
    def test_minimize_weighted_pick(self):
        model = Model()
        weights = [5.0, 2.0, 7.0, 3.0]
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)

        def objective(values):
            return sum(w for x, w in zip(xs, weights) if values[x.index] == 1)

        result = Solver(model).minimize(objective)
        assert len(result) == 1
        solution, value = result[0]
        assert value == pytest.approx(2.0)
        assert solution[xs[1]]

    def test_minimize_k_best_in_order(self):
        model = Model()
        weights = [5.0, 2.0, 7.0, 3.0]
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)

        def objective(values):
            return sum(w for x, w in zip(xs, weights) if values[x.index] == 1)

        solver = Solver(model)
        result = solver.minimize(objective, k=3)
        assert [value for _, value in result] == [2.0, 3.0, 5.0]
        assert [solution.true_variables() for solution, _ in result] \
            == [["x1"], ["x3"], ["x0"]]
        # More than the space holds: all of it, still in order.
        assert [value for _, value in solver.minimize(objective, k=9)] \
            == [2.0, 3.0, 5.0, 7.0]
        with pytest.raises(ValueError):
            solver.minimize(objective, k=0)

    def test_minimize_never_returns_an_infinite_leaf(self):
        model = Model()
        xs = [model.new_bool(f"x{i}") for i in range(3)]
        model.add_exactly_one(xs)
        values_of = {0: float("inf"), 1: 4.0, 2: float("inf")}

        def objective(values):
            return values_of[list(values).index(1)]

        result = Solver(model).minimize(objective, k=3)
        assert [value for _, value in result] == [4.0]
        assert Solver(model).minimize(lambda values: float("inf")) == []

    def test_minimize_infeasible(self):
        model = Model()
        a = model.new_bool("a")
        model.add_clause([a])
        model.add_clause([~a])
        assert Solver(model).minimize(lambda values: 0.0) == []

    def test_minimize_matches_bruteforce(self):
        # Random-ish structured instance, validated against brute force.
        model = Model()
        n = 8
        xs = [model.new_bool(f"x{i}") for i in range(n)]
        model.add_clause([xs[0], xs[1], xs[2]])
        model.add_clause([~xs[0], xs[3]])
        model.add_linear_le([(xs[i], 1.0) for i in range(n)], bound=4.0)
        # At least two set: at most n - 2 clear.
        model.add_linear_le([(~xs[i], 1.0) for i in range(n)],
                            bound=n - 2.0)
        weights = [3.1, 1.7, 4.4, 0.9, 2.2, 5.0, 0.3, 1.1]

        def objective(values):
            return sum(
                w for x, w in zip(xs, weights) if values[x.index] == 1
            )

        result = Solver(model).minimize(objective)
        assert len(result) == 1
        _, value = result[0]

        best = None
        for bits in itertools.product([0, 1], repeat=n):
            if all(c.satisfied_by(bits) for c in model.constraints):
                cand = sum(w for b, w in zip(bits, weights) if b)
                best = cand if best is None else min(best, cand)
        assert value == pytest.approx(best)

    def test_lower_bound_pruning_preserves_optimum(self):
        model = Model()
        weights = [5.0, 2.0, 7.0, 3.0]
        xs = [model.new_bool(f"x{i}") for i in range(4)]
        model.add_exactly_one(xs)

        def objective(values):
            return sum(w for x, w in zip(xs, weights) if values[x.index] == 1)

        def lower_bound(values):
            # committed weight so far - admissible
            return sum(
                w for x, w in zip(xs, weights) if values[x.index] == 1
            )

        pruned = Solver(model)
        result = pruned.minimize(objective, lower_bound=lower_bound)
        assert len(result) == 1
        assert result[0][1] == pytest.approx(2.0)

    def test_stats_populated(self):
        model, _ = build_pigeonhole(holes=3, pigeons=3)
        solver = Solver(model)
        solver.solve()
        assert solver.stats.decisions > 0
        assert solver.stats.propagations > 0


class TestModelValidation:
    def test_duplicate_name_rejected(self):
        model = Model()
        model.new_bool("a")
        with pytest.raises(ModellingError):
            model.new_bool("a")

    def test_unknown_variable_lookup(self):
        with pytest.raises(ModellingError):
            Model().variable("nope")

    def test_foreign_variable_rejected(self):
        m1, m2 = Model(), Model()
        a = m1.new_bool("a")
        with pytest.raises(ModellingError):
            m2.add_clause([a])

    def test_forbid_empty_rejected(self):
        with pytest.raises(ModellingError):
            Model().forbid_assignment([])

    def test_unassigned_sentinel_is_negative(self):
        assert UNASSIGNED == -1


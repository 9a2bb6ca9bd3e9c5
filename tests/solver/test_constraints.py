"""Unit tests for individual constraint propagation rules.

The linear family owns a ``propagate`` method and is called directly.
Clauses and exactly-ones are compiled by the engine, so
their rules are exercised through it: ``engine_propagate`` replays a
partial assignment as decisions on a one-constraint model and reports
what the engine inferred.
"""

import pytest

from repro.errors import ModellingError
from repro.solver import (
    UNASSIGNED,
    Clause,
    ExactlyOne,
    LinearLE,
    Model,
    Solver,
    implication,
)


@pytest.fixture
def model():
    return Model()


def make_vars(model, n):
    return [model.new_bool(f"v{i}") for i in range(n)]


def engine_propagate(model, constraint, values):
    """``(consistent, forced)`` after the engine has seen ``values``."""
    model.add(constraint)
    solver = Solver(model)
    consistent = solver._start()
    for index, value in enumerate(values):
        if not consistent:
            break
        if value == UNASSIGNED:
            continue
        current = solver._values[index]
        if current == UNASSIGNED:
            consistent = solver._decide(index, value)
        else:
            consistent = current == value
    forced = [
        (index, value) for index, value in enumerate(solver._values)
        if value != UNASSIGNED and values[index] == UNASSIGNED
    ]
    return consistent, forced


class TestClause:
    def test_satisfied_when_any_literal_true(self, model):
        a, b = make_vars(model, 2)
        clause = Clause([a, b])
        consistent, forced = engine_propagate(model, clause, [1, UNASSIGNED])
        assert consistent
        assert forced == []

    def test_unit_propagation_forces_last_literal(self, model):
        a, b = make_vars(model, 2)
        clause = Clause([a, b])
        consistent, forced = engine_propagate(model, clause, [0, UNASSIGNED])
        assert consistent
        assert forced == [(1, 1)]

    def test_conflict_when_all_false(self, model):
        a, b = make_vars(model, 2)
        clause = Clause([a, b])
        consistent, forced = engine_propagate(model, clause, [0, 0])
        assert not consistent

    def test_negated_literal_forced_to_zero(self, model):
        a, b = make_vars(model, 2)
        clause = Clause([a, ~b])
        consistent, forced = engine_propagate(model, clause, [0, UNASSIGNED])
        assert consistent
        assert forced == [(1, 0)]

    def test_empty_clause_rejected(self):
        with pytest.raises(ModellingError):
            Clause([])

    def test_satisfied_by_complete_assignment(self, model):
        a, b = make_vars(model, 2)
        clause = Clause([a, ~b])
        assert clause.satisfied_by([1, 1])
        assert clause.satisfied_by([0, 0])
        assert not clause.satisfied_by([0, 1])


class TestExactlyOne:
    def test_forces_rest_false_once_one_true(self, model):
        a, b, c = make_vars(model, 3)
        con = ExactlyOne([a, b, c])
        consistent, forced = engine_propagate(
            model, con, [1, UNASSIGNED, UNASSIGNED])
        assert consistent
        assert sorted(forced) == [(1, 0), (2, 0)]

    def test_forces_last_candidate_true(self, model):
        a, b, c = make_vars(model, 3)
        con = ExactlyOne([a, b, c])
        consistent, forced = engine_propagate(model, con, [0, 0, UNASSIGNED])
        assert consistent
        assert forced == [(2, 1)]

    def test_conflict_two_true(self, model):
        a, b, c = make_vars(model, 3)
        con = ExactlyOne([a, b, c])
        consistent, _ = engine_propagate(model, con, [1, 1, UNASSIGNED])
        assert not consistent

    def test_conflict_all_false(self, model):
        a, b = make_vars(model, 2)
        con = ExactlyOne([a, b])
        consistent, _ = engine_propagate(model, con, [0, 0])
        assert not consistent

    def test_satisfied_by(self, model):
        a, b = make_vars(model, 2)
        con = ExactlyOne([a, b])
        assert con.satisfied_by([1, 0])
        assert not con.satisfied_by([1, 1])
        assert not con.satisfied_by([0, 0])


class TestLinearLE:
    def test_exceeding_bound_is_conflict(self, model):
        a, b = make_vars(model, 2)
        con = LinearLE([(a, 3.0), (b, 4.0)], bound=5.0)
        consistent, _ = con.propagate([1, 1])
        assert not consistent

    def test_forces_heavy_pending_literal_false(self, model):
        a, b = make_vars(model, 2)
        con = LinearLE([(a, 3.0), (b, 4.0)], bound=5.0)
        consistent, forced = con.propagate([1, UNASSIGNED])
        assert consistent
        assert forced == [(1, 0)]

    def test_negative_weight_rejected(self, model):
        a = model.new_bool("a")
        with pytest.raises(ModellingError):
            LinearLE([(a, -1.0)], bound=0.0)

    def test_boundary_exact_bound_ok(self, model):
        a, b = make_vars(model, 2)
        con = LinearLE([(a, 2.0), (b, 3.0)], bound=5.0)
        assert con.satisfied_by([1, 1])


class TestImplication:
    def test_compiles_to_clause(self, model):
        a, b, c = make_vars(model, 3)
        clause = implication([a, b], c)
        # a & b true forces c true
        consistent, forced = engine_propagate(
            model, clause, [1, 1, UNASSIGNED])
        assert consistent
        assert forced == [(2, 1)]

    def test_vacuous_when_antecedent_false(self, model):
        a, b, c = make_vars(model, 3)
        clause = implication([a, b], c)
        assert clause.satisfied_by([0, 1, 0])

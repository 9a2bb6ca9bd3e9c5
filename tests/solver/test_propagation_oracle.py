"""The engine's propagation and search against brute force.

The engine compiles clauses to two watched literals and scans the
cardinality families inline; nothing in it evaluates a constraint the
way ``satisfied_by`` does.  The oracles here know *only*
``satisfied_by``: propagation is checked against "make every constraint
domain-consistent by enumerating its variables, repeat to fixpoint", and
the entry points against enumeration of all 2^n assignments -
``minimize(k)`` against "sort them by (value, DFS position), drop the
infinite ones, take the first k", and against the blocking loop it
replaces.

Generated models cover all three families, including the clause shapes a
watch scheme gets wrong: unit clauses, duplicate literals (``x | x``),
tautologies (``x | ~x``), clauses falsified at the root, variables shared
between a clause and an exactly-one, and clauses added to the model
between two solves of one solver.  Exactly-one and linear constraints
are drawn over distinct variables: with a repeated variable their
propagators are sound but deliberately not domain-consistent.
"""

import itertools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverTimeoutError
from repro.solver import UNASSIGNED, Model, Solver

MAX_VARS = 6


# ----------------------------------------------------------------------
# Model generation
# ----------------------------------------------------------------------
@st.composite
def literal_lists(draw, n, distinct, min_size=1, max_size=4):
    """``[(var index, negated)]``; ``distinct`` forbids repeating a
    variable, otherwise repeats and complementary pairs are welcome."""
    return draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.booleans()),
        min_size=min_size, max_size=min(max_size, n) if distinct else max_size,
        unique_by=(lambda item: item[0]) if distinct else None,
    ))


@st.composite
def constraint_specs(draw, n):
    family = draw(st.sampled_from(
        ["clause", "clause", "exactly_one", "linear_le"]
    ))
    if family == "clause":
        return family, draw(literal_lists(n, distinct=False)), None
    literals = draw(literal_lists(n, distinct=True))
    if family == "exactly_one":
        return family, literals, None
    weights = draw(st.lists(st.integers(0, 4), min_size=len(literals),
                            max_size=len(literals)))
    return family, list(zip(literals, weights)), draw(st.integers(0, 8))


@st.composite
def model_specs(draw):
    n = draw(st.integers(2, MAX_VARS))
    return n, draw(st.lists(constraint_specs(n), min_size=1, max_size=7))


def add_constraint(model, variables, spec):
    family, body, bound = spec

    def lit(item):
        index, negated = item
        return ~variables[index] if negated else variables[index]

    if family == "clause":
        model.add_clause([lit(item) for item in body])
    elif family == "exactly_one":
        model.add_exactly_one([lit(item) for item in body])
    else:
        model.add_linear_le([(lit(item), w) for item, w in body], bound)


def build(spec):
    n, constraints = spec
    model = Model()
    variables = [model.new_bool(f"v{i}") for i in range(n)]
    for constraint in constraints:
        add_constraint(model, variables, constraint)
    return model, variables


# ----------------------------------------------------------------------
# Oracles: satisfied_by and nothing else
# ----------------------------------------------------------------------
def oracle_fixpoint(model, values):
    """Domain-consistency on every constraint, to fixpoint.

    Returns the extended partial assignment, or None when some
    constraint has no satisfying completion of its own variables.
    """
    values = list(values)
    changed = True
    while changed:
        changed = False
        for constraint in model.constraints:
            free = sorted({
                var.index for var in constraint.variables()
                if values[var.index] == UNASSIGNED
            })
            base = [0 if v == UNASSIGNED else v for v in values]
            supports = []
            for bits in itertools.product((0, 1), repeat=len(free)):
                for index, bit in zip(free, bits):
                    base[index] = bit
                if constraint.satisfied_by(base):
                    supports.append(bits)
            if not supports:
                return None
            for position, index in enumerate(free):
                seen = {bits[position] for bits in supports}
                if len(seen) == 1:
                    values[index] = seen.pop()
                    changed = True
    return values


def brute_force_solutions(model):
    """Every satisfying assignment in DFS order: variables in index
    order, 1 before 0."""
    return [
        bits
        for bits in itertools.product((1, 0), repeat=model.num_variables)
        if all(c.satisfied_by(bits) for c in model.constraints)
    ]


def assert_mirrors_agree(solver):
    """The per-literal truth table is the per-variable values, twice."""
    for index, value in enumerate(solver._values):
        positive, negative = solver._truth[2 * index + 1], \
            solver._truth[2 * index]
        if value == UNASSIGNED:
            assert positive == negative == UNASSIGNED
        else:
            assert (positive, negative) == (value, 1 - value)
    assigned = sorted(code >> 1 for code in solver._trail)
    assert assigned == [
        i for i, v in enumerate(solver._values) if v != UNASSIGNED
    ]


def full_assignment_literals(variables, bits):
    return [var if bit else ~var for var, bit in zip(variables, bits)]


def weighted_sum(weights):
    """Objective: total weight of the variables set.  Weights are
    non-negative (``math.inf`` included), so the same function over a
    partial assignment is an admissible lower bound."""
    def objective(values):
        return float(sum(w for w, v in zip(weights, values) if v == 1))
    return objective


def brute_force_k_best(model, objective, k):
    """``(assignment, value)`` of the k lowest finite-valued solutions,
    by (value, DFS position)."""
    solutions = brute_force_solutions(model)
    ranked = sorted(
        (objective(bits), position)
        for position, bits in enumerate(solutions)
        if not math.isinf(objective(bits))
    )
    return [(solutions[position], value) for value, position in ranked[:k]]


def as_pairs(result):
    return [(solution.values, value) for solution, value in result]


# ----------------------------------------------------------------------
# Propagation: same fixpoint or same conflict after every decision
# ----------------------------------------------------------------------
class TestPropagationMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        model_specs(),
        st.lists(st.tuples(st.integers(0, MAX_VARS - 1), st.integers(0, 1)),
                 max_size=10),
    )
    def test_fixpoint_and_verdict_after_every_decision(self, spec,
                                                       decisions):
        model, _ = build(spec)
        solver = Solver(model)
        expected = oracle_fixpoint(model, [UNASSIGNED] * spec[0])
        assert solver._start() == (expected is not None)
        if expected is None:
            assert solver.stats.conflicts == 1
            return
        assert solver._values == expected
        assert_mirrors_agree(solver)
        for index, value in decisions:
            if index >= spec[0] or solver._values[index] != UNASSIGNED:
                continue
            before = list(solver._values)
            mark = len(solver._trail)
            tentative = list(before)
            tentative[index] = value
            expected = oracle_fixpoint(model, tentative)
            consistent = solver._decide(index, value)
            assert consistent == (expected is not None)
            if consistent:
                assert solver._values == expected
            else:
                solver._undo(mark)
                assert solver._values == before
            assert_mirrors_agree(solver)

    @settings(max_examples=150, deadline=None)
    @given(model_specs(), st.data())
    def test_watches_survive_any_backtracking_order(self, spec, data):
        """Dive, back up to an arbitrary earlier point, dive again: the
        watch lists are never repaired on undo, so stale watches would
        show as a missed implication on a later dive."""
        model, _ = build(spec)
        solver = Solver(model)
        if not solver._start():
            return
        marks = []
        for _ in range(12):
            free = [i for i, v in enumerate(solver._values)
                    if v == UNASSIGNED]
            if marks and (not free or data.draw(st.booleans())):
                keep = data.draw(st.integers(0, len(marks) - 1))
                solver._undo(marks[keep])
                del marks[keep:]
                continue
            if not free:
                break
            index = data.draw(st.sampled_from(free))
            value = data.draw(st.integers(0, 1))
            tentative = list(solver._values)
            tentative[index] = value
            expected = oracle_fixpoint(model, tentative)
            mark = len(solver._trail)
            if solver._decide(index, value):
                assert solver._values == expected
                marks.append(mark)
            else:
                assert expected is None
                solver._undo(mark)
            assert_mirrors_agree(solver)


# ----------------------------------------------------------------------
# Entry points against enumeration of all 2^n assignments
# ----------------------------------------------------------------------
class TestSearchMatchesBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(model_specs())
    def test_enumerate_yields_brute_force_in_dfs_order(self, spec):
        model, _ = build(spec)
        solver = Solver(model)
        found = [solution.values for solution in solver.enumerate()]
        assert found == brute_force_solutions(model)
        assert solver.stats.solutions == len(found)

    @settings(max_examples=200, deadline=None)
    @given(model_specs())
    def test_backtracking_returns_to_the_root_fixpoint(self, spec):
        model, _ = build(spec)
        solver = Solver(model)
        list(solver.enumerate())
        root = oracle_fixpoint(model, [UNASSIGNED] * spec[0])
        if root is not None:
            assert solver._values == root
            assert sorted(code >> 1 for code in solver._trail) == [
                i for i, v in enumerate(root) if v != UNASSIGNED
            ]
        solver.minimize(lambda values: float(sum(values)))
        if root is not None:
            assert solver._values == root
            assert_mirrors_agree(solver)

    @settings(max_examples=150, deadline=None)
    @given(
        model_specs(),
        st.lists(st.integers(0, 3), min_size=MAX_VARS, max_size=MAX_VARS),
        st.integers(1, 6),
    )
    def test_minimize_with_blocking_rounds(self, spec, weights, rounds):
        """K rounds of minimize + ``forbid_assignment`` on ONE solver
        (each round compiles just the clause the previous one added)
        walk the solutions by (value, DFS position) - and so do K fresh
        solvers."""
        model, variables = build(spec)
        objective = weighted_sum(weights)
        solutions = brute_force_solutions(model)
        expected = brute_force_k_best(model, objective, rounds)
        # The two formulations agree: one K-best traversal returns what
        # the blocking loop below walks through.
        assert as_pairs(Solver(model).minimize(objective, k=rounds)) \
            == expected

        reused = Solver(model)
        found = []
        for _ in range(rounds):
            result = reused.minimize(objective)
            fresh = Solver(model).minimize(objective)
            assert as_pairs(fresh) == as_pairs(result)
            if not result:
                break
            (solution, value), = result
            assert value == objective(solution.values)
            found.append((solution.values, value))
            model.forbid_assignment(
                full_assignment_literals(variables, solution.values)
            )
        assert found == expected
        if len(found) < rounds:
            assert len(solutions) == len(found)

    @settings(max_examples=100, deadline=None)
    @given(
        model_specs(),
        st.lists(st.integers(0, 3), min_size=MAX_VARS, max_size=MAX_VARS),
    )
    def test_lower_bound_never_changes_the_answer(self, spec, weights):
        model, _ = build(spec)
        objective = weighted_sum(weights)
        plain = Solver(model)
        bounded = Solver(model)
        expected = plain.minimize(objective)
        # Committed weight: admissible, as weights are non-negative.
        result = bounded.minimize(objective, lower_bound=objective)
        assert as_pairs(result) == as_pairs(expected)
        assert bounded.stats.decisions <= plain.stats.decisions


# ----------------------------------------------------------------------
# K-best: one traversal against "sort all 2^n, take the first k"
# ----------------------------------------------------------------------
#: Small integers tie often; infinity makes leaves that must not return.
WEIGHTS = st.lists(st.sampled_from([0, 0, 1, 2, 3, math.inf]),
                   min_size=MAX_VARS, max_size=MAX_VARS)
#: Up to past the 2^MAX_VARS assignments a model can have.
KS = st.integers(1, 2 ** MAX_VARS + 6)


class TestKBestMatchesBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(model_specs(), WEIGHTS, KS)
    def test_k_best_is_brute_force_sorted_by_value_then_dfs(self, spec,
                                                            weights, k):
        """Ties, infinite leaves, k beyond the space - with and without
        a lower bound, which may only make the search shorter."""
        model, _ = build(spec)
        objective = weighted_sum(weights)
        expected = brute_force_k_best(model, objective, k)
        plain = Solver(model)
        bounded = Solver(model)
        assert as_pairs(plain.minimize(objective, k=k)) == expected
        assert as_pairs(
            bounded.minimize(objective, lower_bound=objective, k=k)
        ) == expected
        assert all(not math.isinf(value) for _, value in expected)
        assert bounded.stats.decisions <= plain.stats.decisions

    @settings(max_examples=60, deadline=None)
    @given(model_specs(), WEIGHTS)
    def test_k_of_one_is_the_plain_minimum(self, spec, weights):
        model, _ = build(spec)
        objective = weighted_sum(weights)
        solver = Solver(model)
        default = as_pairs(solver.minimize(objective))
        assert default == as_pairs(solver.minimize(objective, k=1))
        assert default == brute_force_k_best(model, objective, 1)

    @settings(max_examples=80, deadline=None)
    @given(model_specs(), WEIGHTS, KS, st.integers(0, 5))
    def test_k_best_on_a_solver_with_a_history(self, spec, weights, k,
                                               blocked):
        """The solver has solved, enumerated and minimized before, and
        the model gained blocking clauses in between: the next K-best is
        still brute force over what the model now says."""
        model, variables = build(spec)
        objective = weighted_sum(weights)
        solver = Solver(model)
        solver.solve()
        for solution in itertools.islice(solver.enumerate(), blocked):
            model.forbid_assignment(
                full_assignment_literals(variables, solution.values)
            )
        for solution, _ in solver.minimize(objective, k=2):
            model.forbid_assignment(
                full_assignment_literals(variables, solution.values)
            )
        expected = brute_force_k_best(model, objective, k)
        assert as_pairs(
            solver.minimize(objective, lower_bound=objective, k=k)
        ) == expected
        assert as_pairs(Solver(model).minimize(objective, k=k)) == expected

    @settings(max_examples=60, deadline=None)
    @given(model_specs(), WEIGHTS, st.integers(1, 8), st.integers(1, 40))
    def test_interrupted_search_hands_over_its_incumbents(self, spec,
                                                          weights, k,
                                                          budget):
        """Out of decisions mid-traversal: the error carries the k best
        of the leaves reached, a prefix of the DFS order."""
        model, _ = build(spec)
        objective = weighted_sum(weights)
        solver = Solver(model, max_decisions=budget)
        try:
            solver.minimize(objective, k=k)
        except SolverTimeoutError as error:
            incumbents = as_pairs(error.incumbents)
        else:
            return
        solutions = brute_force_solutions(model)
        assert incumbents == sorted(
            incumbents, key=lambda pair: (pair[1], solutions.index(pair[0]))
        )
        assert len(incumbents) <= k
        for bits, value in incumbents:
            assert value == objective(bits) and not math.isinf(value)
        # Whatever DFS reached and left out is no better than the worst
        # incumbent kept.
        if incumbents:
            reached = max(solutions.index(bits) for bits, _ in incumbents)
            kept = {bits for bits, _ in incumbents}
            worst = max(value for _, value in incumbents)
            if len(incumbents) < k:
                worst = math.inf  # room left: only infinite leaves skipped
            for bits in solutions[:reached]:
                if bits not in kept:
                    assert objective(bits) >= worst


# ----------------------------------------------------------------------
# The named shapes, one by one
# ----------------------------------------------------------------------
class TestClauseShapes:
    def make(self, n=3):
        model = Model()
        return model, [model.new_bool(f"v{i}") for i in range(n)]

    def test_unit_clause_fires_at_the_root(self):
        model, (a, b, _) = self.make()
        model.add_clause([~a])
        model.add_clause([a, b])
        solver = Solver(model)
        assert solver._start()
        assert solver._values == [0, 1, UNASSIGNED]

    def test_duplicate_literals_are_a_unit(self):
        model, (a, _, _) = self.make()
        model.add_clause([a, a])
        solver = Solver(model)
        assert solver._start()
        assert solver._values[a.index] == 1
        assert len(list(solver.enumerate())) == 4

    def test_duplicate_literal_next_to_others_is_still_watched(self):
        model, (a, b, c) = self.make()
        model.add_clause([a, a, b])
        solver = Solver(model)
        assert solver._start()
        assert solver._decide(a.index, 0)
        assert solver._values == [0, 1, UNASSIGNED]
        assert c.index == 2

    def test_tautology_constrains_nothing(self):
        model, (a, b, _) = self.make()
        model.add_clause([a, ~a])
        model.add_clause([b, ~b, a])
        solver = Solver(model)
        assert solver._start()
        assert solver._values == [UNASSIGNED] * 3
        assert solver._decide(a.index, 0)
        assert solver._values == [0, UNASSIGNED, UNASSIGNED]
        assert len(list(solver.enumerate())) == 8

    def test_clause_false_at_the_root_is_a_conflict(self):
        model, (a, b, c) = self.make()
        model.add_clause([a, b, c])
        for var in (a, b, c):
            model.add_clause([~var])
        solver = Solver(model)
        assert not solver._start()
        assert solver.stats.conflicts == 1
        assert solver.solve() is None
        assert solver.minimize(lambda values: 0.0) == []

    def test_variable_shared_by_clause_and_exactly_one(self):
        model, (a, b, c) = self.make()
        model.add_exactly_one([a, b, c])
        model.add_clause([~a, ~c])
        model.add_clause([~b, c])
        solver = Solver(model)
        assert solver._start()
        # b needs c, which the exactly-one then forbids next to b.
        assert not solver._decide(b.index, 1)
        solver._undo(0)
        assert solver._decide(c.index, 1)
        assert solver._values == [0, 0, 1]

    def test_clauses_added_between_solves_are_compiled(self):
        model, variables = self.make()
        model.add_exactly_one(variables)
        solver = Solver(model)
        seen = []
        while True:
            solution = solver.solve()
            if solution is None:
                break
            seen.append(solution.values)
            model.forbid_assignment(
                full_assignment_literals(variables, solution.values)
            )
        assert seen == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_variables_added_after_construction(self):
        model, (a, _, _) = self.make()
        solver = Solver(model)
        late = model.new_bool("late")
        model.add_clause([~a, late])
        model.add_clause([a])
        solution = solver.solve()
        assert solution is not None and solution[late] and solution["late"]

    def test_repeated_variable_in_cardinality_stays_sound(self):
        """Not domain-consistent for these shapes, but never wrong."""
        for build_case in (
            lambda m, a, b: m.add_exactly_one([a, a]),
            lambda m, a, b: m.add_exactly_one([a, ~a, b]),
        ):
            model = Model()
            a, b = model.new_bool("a"), model.new_bool("b")
            build_case(model, a, b)
            found = [s.values for s in Solver(model).enumerate()]
            assert found == brute_force_solutions(model)

"""Property-based validation of BT-Optimizer against brute force.

For random profiling tables, the optimizer must find exactly the optima
that exhaustive enumeration over all contiguous schedules finds - both
for the gapness objective (level 1) and for latency-under-threshold
(level 2's first candidate) - and each K-best phase must return,
candidate for candidate, the list a brute-force replay of the paper's
blocking loop produces round by round.  The branch-and-bound bounds of
the constraint-search oracle (``cp_optimizer``) are checked admissible.
"""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Application, Stage
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import ProfilingTable
from repro.soc import WorkProfile
from repro.solver import UNASSIGNED
from tests.core.cp_optimizer import CPOptimizer, contiguous_schedules


def make_case(latencies):
    """latencies: list of per-stage lists, one column per PU."""
    n = len(latencies)
    m = len(latencies[0])
    pus = tuple(f"pu{j}" for j in range(m))
    app = Application(
        "prop",
        [Stage.model_only(f"s{i}", WorkProfile(flops=1.0, bytes_moved=1.0))
         for i in range(n)],
    )
    entries = {
        (f"s{i}", pus[j]): latencies[i][j]
        for i in range(n)
        for j in range(m)
    }
    table = ProfilingTable(
        application="prop", platform="test", mode="interference",
        entries=entries, stage_names=app.stage_names, pu_classes=pus,
    )
    return app, table


latency_tables = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0,
                          allow_nan=False, allow_infinity=False),
                min_size=m, max_size=m,
            ),
            min_size=n, max_size=n,
        )
    )
)


class TestAgainstBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(latency_tables)
    def test_gapness_optimum_is_global(self, latencies):
        app, table = make_case(latencies)
        best = BTOptimizer(app, table).optimize_utilization()
        brute = min(
            s.gapness(app, table)
            for s in contiguous_schedules(app.num_stages, table.pu_classes)
        )
        assert best.gapness_s == pytest.approx(brute, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(latency_tables)
    def test_unfiltered_latency_optimum_is_global(self, latencies):
        app, table = make_case(latencies)
        result = BTOptimizer(app, table, k=1,
                             gap_slack=math.inf).optimize()
        brute = min(
            s.predicted_latency(app, table)
            for s in contiguous_schedules(app.num_stages, table.pu_classes)
        )
        assert result.best.predicted_latency_s == pytest.approx(
            brute, abs=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(latency_tables)
    def test_filtered_optimum_respects_threshold_and_is_best(
        self, latencies
    ):
        app, table = make_case(latencies)
        result = BTOptimizer(app, table, k=1).optimize()
        threshold = result.gap_threshold_s
        feasible = [
            s for s in contiguous_schedules(app.num_stages, table.pu_classes)
            if s.gapness(app, table) <= threshold + 1e-9
        ]
        assert feasible, "threshold always admits the gapness optimum"
        brute = min(s.predicted_latency(app, table) for s in feasible)
        assert result.best.predicted_latency_s == pytest.approx(
            brute, abs=1e-9
        )

    @settings(max_examples=25, deadline=None)
    @given(latency_tables)
    def test_enumeration_is_exhaustive_and_distinct(self, latencies):
        app, table = make_case(latencies)
        space = contiguous_schedules(app.num_stages, table.pu_classes)
        result = BTOptimizer(app, table, k=len(space) + 5,
                             gap_slack=math.inf).optimize()
        assert len(result.candidates) == len(space)
        seen = {c.schedule.assignments for c in result.candidates}
        assert len(seen) == len(space)

    @settings(max_examples=25, deadline=None)
    @given(latency_tables)
    def test_candidate_predictions_are_self_consistent(self, latencies):
        app, table = make_case(latencies)
        result = BTOptimizer(app, table, k=5).optimize()
        for candidate in result.candidates:
            assert candidate.predicted_latency_s == pytest.approx(
                candidate.schedule.predicted_latency(app, table)
            )
            assert candidate.gapness_s == pytest.approx(
                candidate.schedule.gapness(app, table)
            )


class TestBoundsAreAdmissible:
    @settings(max_examples=40, deadline=None)
    @given(latency_tables, st.sampled_from([0.0, 0.5, 2.0, math.inf]))
    def test_no_prefix_bound_exceeds_a_completion(self, latencies,
                                                  threshold):
        """Branch-and-bound is only exact under bounds that never
        overshoot: for every contiguous schedule and every decided
        prefix of it (zero-latency stages included), the bound on the
        prefix stays at or below the objective of the whole."""
        latencies = [row[:] for row in latencies]
        latencies[-1] = [0.0] * len(latencies[0])
        app, table = make_case(latencies)
        optimizer = CPOptimizer(app, table)
        n, m = len(latencies), len(latencies[0])
        gapness = optimizer._objective()
        latency = optimizer._objective(threshold)
        latency_bound = optimizer._latency_lower_bound(threshold)
        for schedule in contiguous_schedules(n, table.pu_classes):
            columns = [table.pu_classes.index(pu)
                       for pu in schedule.assignments]
            complete = [int(c == column) for column in columns
                        for c in range(m)]
            for decided in range(n + 1):
                prefix = complete[:decided * m] \
                    + [UNASSIGNED] * ((n - decided) * m)
                assert optimizer._gapness_lower_bound(prefix) \
                    <= gapness(complete)
                assert latency_bound(prefix) <= latency(complete)


# ----------------------------------------------------------------------
# The whole candidate list, replayed without a solver
# ----------------------------------------------------------------------
def chunk_sums(assignment, latencies):
    sums, previous = [], None
    for stage, pu in enumerate(assignment):
        if pu != previous:
            sums.append(0.0)
            previous = pu
        sums[-1] += latencies[stage][pu]
    return sums


def first_minimum(space, objective):
    """What branch-and-bound returns: scanning in search order, a later
    assignment replaces the incumbent only by beating it by > 1e-12."""
    best = None
    for assignment in space:
        value = objective(assignment)
        if best is None or value < best[1] - 1e-12:
            best = (assignment, value)
    return best


def replay_candidates(latencies, k, gap_slack):
    """BT-Optimizer levels 1-2 the paper's way - solve, block, solve
    again - by exhaustive scans: returns the ranked ``(assignment,
    latency, gapness)`` list, the threshold and how many solver
    invocations the optimizer may spend on it (level 1, the filtered
    K-best, and a top-up only if the filter left fewer than k)."""
    n, m = len(latencies), len(latencies[0])
    # The search order: stage-major, lower PU column first.
    space = [
        a for a in itertools.product(range(m), repeat=n)
        if all(a[i] != a[j] or len(set(a[i:j])) == 1
               for i in range(n) for j in range(i + 1, n))
    ]

    def gapness(a):
        sums = chunk_sums(a, latencies)
        return max(sums) - min(sums)

    def latency(a):
        return max(chunk_sums(a, latencies))

    optimum, best_gap = first_minimum(space, gapness)
    threshold = best_gap + gap_slack * latency(optimum)

    def filtered(a):
        return math.inf if gapness(a) > threshold + 1e-12 else latency(a)

    found = []
    within_filter = 0
    objective = filtered
    for _ in range(k):
        result = first_minimum(space, objective) if space else None
        if result is None or math.isinf(result[1]):
            if objective is latency:
                break
            objective = latency
            result = first_minimum(space, objective) if space else None
            if result is None or math.isinf(result[1]):
                break
        within_filter += objective is filtered
        found.append((result[0], result[1], gapness(result[0])))
        space.remove(result[0])
    found.sort(key=lambda c: (c[1], c[2]))
    return found, threshold, 2 + (within_filter < k)


def assert_same_up_to_ulp_ties(candidates, expected):
    """The one K-best traversal ranks incumbents by exact value; the
    blocking loop keeps an incumbent unless beaten by > 1e-12.  Two
    schedules whose latencies differ by less than that (one ulp, say)
    may therefore be settled differently at the edge of the list: a
    position may hold a different schedule only when its latency ties
    the replay's there within the replay's own 1e-12."""
    assert len(candidates) == len(expected)
    for mine, theirs in zip(candidates, expected):
        if mine != theirs:
            assert abs(mine[1] - theirs[1]) <= 1e-12, (mine, theirs)
    assert len({c[0] for c in candidates}) == len(candidates)


class TestWholeCandidateList:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=2, max_value=4).flatmap(
            lambda m: st.lists(
                st.lists(
                    st.floats(min_value=0.01, max_value=10.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=m, max_size=m,
                ),
                min_size=2, max_size=6,
            )
        ),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([0.0, 0.10, 0.5]),
    )
    # Two schedules one ulp apart (3.6521113643743193 vs ...197) tie for
    # the last place of the top-up phase.
    @example(latencies=[[2, 1, 4], [2, .5, 3], [1, 1, .5],
                        [4, 2, 0.15211136437431946], [1, .5, 3]],
             k=14, gap_slack=0.0)
    def test_matches_replay_in_both_phases(self, latencies, k, gap_slack):
        """Schedules, latencies, gapness and order of every candidate -
        through the filtered phase, the top-up phase and exhaustion."""
        app, table = make_case(latencies)
        result = BTOptimizer(app, table, k=k,
                             gap_slack=gap_slack).optimize()
        expected, threshold, invocations = replay_candidates(
            latencies, k, gap_slack
        )
        pus = table.pu_classes
        assert_same_up_to_ulp_ties([
            (c.schedule.assignments, c.predicted_latency_s, c.gapness_s)
            for c in result.candidates
        ], [
            (tuple(pus[c] for c in assignment), latency, gap)
            for assignment, latency, gap in expected
        ])
        assert [c.rank for c in result.candidates] \
            == list(range(len(expected)))
        assert result.gap_threshold_s == threshold
        assert result.solver_invocations == invocations

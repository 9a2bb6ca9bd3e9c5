"""Solver scalability: what a plan costs as the pipeline grows, and the
floor under it.

The paper sizes its search-space discussion at N = 9 stages, M = 4 PU
classes (4^9 ~ 262K raw assignments).  Contiguity (C2) leaves far fewer:
a schedule is a split of the stages into k chunks times an ordered pick
of k distinct PU classes, so the C1 + C2 space holds

    sum_k C(N - 1, k - 1) * P(M, k)

schedules - 2 116 at the paper's scale, 18 on a two-class Jetson.  A
closed-form walk of that space (``enumerate_space`` below: one running
sum per chunk, shared along common prefixes) is the lower bound any
search for the K best has to be measured against; it is test equipment,
not a planner - it knows C1-C3 and nothing the next constraint family
would add.  This benchmark

* asserts the count, and that the K-best read off the enumerated space
  is the optimizer's candidate list, float for float;
* prints CP-search time over enumerator time at paper scale, and sweeps
  N on synthetic pipelines up to N = 14, M = 5 so "the CP formulation
  survives" is a curve, not a sentence;
* holds the worst cell of the paper's own campaign (alexnet-sparse on
  the Pixel 7a, K = 20) - the whole ``optimize()``, all its solver
  invocations - under the 50 ms the paper reports for *one* z3 call.
"""

import math
import time

import numpy as np
import pytest

from repro.apps import build_alexnet_sparse, build_synthetic_application
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler, ProfilingTable
from repro.obs import capture
from repro.soc import get_platform

STAGE_COUNTS = (4, 6, 9, 12)
#: Past every registered SoC (<= 4 schedulable classes): drawn tables.
WIDE_CASES = ((12, 5), (14, 5))


# ----------------------------------------------------------------------
# Test equipment: the C1 + C2 space in closed form
# ----------------------------------------------------------------------
def space_size(n, m):
    """Contiguous schedules of n stages over m PU classes."""
    return sum(
        math.comb(n - 1, k - 1) * math.perm(m, k)
        for k in range(1, min(n, m) + 1)
    )


def enumerate_space(lat):
    """Every C1 + C2 schedule as ``(assignment, chunk runtimes)``, in the
    solver's search order (stage-major, lower PU column first).

    A schedule's chunk runtimes extend its prefix's: staying on the PU
    adds to the open chunk's running sum, moving to an unused PU closes
    it.  The additions happen in stage order, so the floats are the ones
    the optimizer computes.
    """
    n, m = len(lat), len(lat[0])

    def extend(assignment, closed, running):
        stage = len(assignment)
        if stage == n:
            yield assignment, closed + (running,)
            return
        current = assignment[-1]
        for pu in range(m):
            if pu == current:
                yield from extend(assignment + (pu,), closed,
                                  running + lat[stage][pu])
            elif pu not in assignment:
                yield from extend(assignment + (pu,), closed + (running,),
                                  0.0 + lat[stage][pu])

    for first in range(m):
        yield from extend((first,), (), 0.0 + lat[0][first])


def enumerated_k_best(lat, k, gap_slack):
    """BT-Optimizer levels 1 + 2 read off the enumerated space: ranked
    ``(assignment, latency, gapness)``."""
    scored = [
        (max(sums), max(sums) - min(sums), position, assignment)
        for position, (assignment, sums) in enumerate(enumerate_space(lat))
    ]
    latency, gap, _, _ = min(scored, key=lambda s: (s[1], s[2]))
    threshold = gap + gap_slack * latency
    # The K best by (latency, search position), the filter's side first.
    by_latency = sorted(scored, key=lambda s: (s[0], s[2]))
    within = [s for s in by_latency if s[1] <= threshold + 1e-12][:k]
    beyond = [s for s in by_latency if s[1] > threshold + 1e-12]
    chosen = within + beyond[:k - len(within)]
    chosen.sort(key=lambda s: (s[0], s[1]))
    return [(assignment, latency, gap)
            for latency, gap, _, assignment in chosen]


def drawn_case(n, m, seed=42):
    """An n-stage application with an m-column table of drawn latencies
    (log-uniform over a decade: chunks of very different lengths tie for
    the bottleneck, as on a real SoC)."""
    app = build_synthetic_application(seed=seed, stage_count=n)
    rng = np.random.default_rng(seed)
    pus = tuple(f"pu{c}" for c in range(m))
    entries = {
        (stage, pu): float(1e-3 * 10.0 ** rng.uniform(0.0, 1.0))
        for stage in app.stage_names
        for pu in pus
    }
    return app, ProfilingTable(
        application=app.name, platform="drawn", mode="interference",
        entries=entries, stage_names=app.stage_names, pu_classes=pus,
    )


def latency_matrix(app, table):
    return [[table.latency(stage, pu) for pu in table.pu_classes]
            for stage in app.stage_names]


def counted_optimize(app, table, k):
    """``(wall seconds, result, decisions, propagations)`` of one
    ``optimize()``; the counts come from the optimizer's own metrics."""
    with capture() as cap:
        start = time.perf_counter()
        result = BTOptimizer(app, table, k=k).optimize()
        wall = time.perf_counter() - start
    counters = cap.metrics.snapshot()["counters"]
    return (wall, result, counters["solver.nodes"],
            counters["solver.propagations"])


def assert_matches_enumerator(app, table, result, k):
    """The optimizer's candidates are the enumerator's K best; returns
    the seconds the enumerator took."""
    lat = latency_matrix(app, table)
    start = time.perf_counter()
    expected = enumerated_k_best(lat, k, gap_slack=0.10)
    floor = time.perf_counter() - start
    pus = table.pu_classes
    assert [
        (c.schedule.assignments, c.predicted_latency_s, c.gapness_s)
        for c in result.candidates
    ] == [
        (tuple(pus[c] for c in assignment), latency, gap)
        for assignment, latency, gap in expected
    ]
    return floor


@pytest.fixture(scope="module")
def tables():
    platform = get_platform("pixel7a")
    profiler = BTProfiler(platform, repetitions=2)
    out = {}
    for n in STAGE_COUNTS:
        app = build_synthetic_application(seed=42, stage_count=n)
        out[n, 4] = (
            app,
            profiler.profile(app).restricted(
                platform.schedulable_classes()
            ),
        )
    for n, m in WIDE_CASES:
        out[n, m] = drawn_case(n, m)
    return out


def test_space_size_is_the_closed_form():
    assert space_size(9, 4) == 2116
    assert space_size(9, 2) == 18  # a Jetson: CPU cluster + GPU
    for n, m in ((1, 3), (4, 2), (6, 4), (9, 4), (7, 5)):
        lat = [[1.0] * m for _ in range(n)]
        space = [assignment for assignment, _ in enumerate_space(lat)]
        assert len(space) == len(set(space)) == space_size(n, m)
        assert space == sorted(space)  # the solver's search order


def test_solver_scaling_with_stage_count(benchmark, tables):
    def sweep():
        results = {}
        for case, (app, table) in tables.items():
            wall, optimization, decisions, propagations = \
                counted_optimize(app, table, k=5)
            results[case] = (
                wall,
                assert_matches_enumerator(app, table, optimization, k=5),
                optimization.solver_invocations,
                len(optimization.candidates),
                decisions,
                propagations,
            )
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n(stages, PUs) -> space, CP search wall (x enumerator), "
          "invocations, candidates, decisions, propagations:")
    for (n, m), row in sorted(results.items()):
        wall, floor, invocations, candidates, decisions, propagations = row
        print(f"  N={n:2d} M={m}: {space_size(n, m):7d} schedules, "
              f"{wall * 1e3:8.1f} ms ({wall / floor:5.1f}x), "
              f"{invocations} invocations, {candidates} candidates, "
              f"{decisions} decisions, {propagations} propagations")
    # The paper-scale case stays interactive: ~7 ms measured with one
    # traversal per phase (~50 ms with K + 1 restarts, 241 ms before the
    # watched-literal core), 7x headroom for a loaded runner.
    assert results[9, 4][0] < 0.05
    # And the widest case - 59x the paper's space - completes within a
    # lenient budget.
    assert results[14, 5][0] < 60.0
    for row in results.values():
        assert row[2] <= 3
        assert row[3] >= 1


def test_worst_paper_cell_under_the_papers_50ms(benchmark):
    """alexnet-sparse on the Pixel 7a (N = 9, M = 4, K = 20) is the most
    expensive plan of the paper campaign.  The whole ``optimize()`` -
    level 1, the filtered K-best and the top-up - best of three: ~17 ms
    (~420 ms as 22 restarts), against the 50 ms the paper quotes for one
    z3 invocation of its K + 1."""
    platform = get_platform("pixel7a")
    app = build_alexnet_sparse()
    table = BTProfiler(platform, repetitions=2).profile(app).restricted(
        platform.schedulable_classes()
    )

    def best_of_three():
        return min(
            (counted_optimize(app, table, k=20) for _ in range(3)),
            key=lambda run: run[0],
        )

    wall, result, decisions, propagations = benchmark.pedantic(
        best_of_three, rounds=1, iterations=1
    )
    floor = assert_matches_enumerator(app, table, result, k=20)
    invocations = result.solver_invocations
    print(f"\nworst paper cell: {wall * 1e3:.1f} ms per plan over "
          f"{invocations} invocations ({decisions} decisions, "
          f"{propagations} propagations); enumerator {floor * 1e3:.1f} ms "
          f"- CP search / enumerator = {wall / floor:.1f}x")
    assert len(result.candidates) == 20
    assert invocations <= 3
    assert wall < 0.050

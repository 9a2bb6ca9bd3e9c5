"""Benchmark for the planner's cost beside the paper's solver budget
(paper section 3.3: each z3 invocation on the Pixel/AlexNet case
completes in < 50 ms).  The shipped planner walks the contiguous
schedule space; the CP encoding the paper hands to z3 is timed beside
it as the oracle (``tests/core/cp_optimizer.py``)."""

import time

import pytest

from repro.apps import build_alexnet_sparse
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.soc import get_platform
from tests.core.cp_optimizer import CPOptimizer


@pytest.fixture(scope="module")
def paper_case():
    """The paper's sizing example: N=9 stages, M=4 PU classes."""
    platform = get_platform("pixel7a")
    application = build_alexnet_sparse()
    table = BTProfiler(platform, repetitions=5).profile(application)
    return application, table.restricted(platform.schedulable_classes())


def test_solver_single_invocation_under_paper_budget(benchmark, paper_case):
    application, table = paper_case

    def solve_level1():
        return BTOptimizer(application, table).optimize_utilization()

    result = benchmark(solve_level1)
    assert result.gapness_s >= 0.0
    assert result == CPOptimizer(application, table).optimize_utilization()
    # Paper: < 50 ms per invocation on a commodity laptop.  Allow head
    # room for slow CI machines.
    assert benchmark.stats["mean"] < 0.25


def test_full_k20_campaign(benchmark, paper_case):
    application, table = paper_case

    def solve_all():
        return BTOptimizer(application, table, k=20).optimize()

    result = benchmark.pedantic(solve_all, rounds=1, iterations=1)
    assert len(result.candidates) == 20
    start = time.perf_counter()
    searched = CPOptimizer(application, table, k=20).optimize()
    search_wall = time.perf_counter() - start
    assert result == searched
    print(f"\nK = 20 plan: walked in {benchmark.stats['mean'] * 1e3:.1f} "
          f"ms; CP search {search_wall * 1e3:.1f} ms over "
          f"{searched.solver_invocations} invocations")
    assert benchmark.stats["mean"] < 0.25

"""Ablation: exact optimization vs metaheuristic search.

The paper chose an exact SMT formulation over the metaheuristic
schedulers in its related work (MOSCOA, [2]); the planner evaluates the
same formulation exhaustively over the contiguous schedule space.  This
ablation compares exact and metaheuristic on the paper-scale
AlexNet-sparse case: solution quality, wall time, and whether the
metaheuristic's best would survive the gapness filter.
"""

import math
import time

import pytest

from benchmarks.conftest import run_once
from repro.apps import build_alexnet_sparse
from repro.baselines import MetaheuristicOptimizer
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.soc import get_platform


def test_exact_vs_metaheuristic(benchmark):
    platform = get_platform("pixel7a")
    application = build_alexnet_sparse()
    table = BTProfiler(platform, repetitions=10).profile(
        application
    ).restricted(platform.schedulable_classes())

    def compare():
        start = time.perf_counter()
        exact = BTOptimizer(application, table, k=1,
                            gap_slack=math.inf).optimize()
        exact_wall = time.perf_counter() - start

        start = time.perf_counter()
        meta_optimizer = MetaheuristicOptimizer(
            application, table, restarts=10, moves_per_restart=300,
            seed=0,
        )
        meta = meta_optimizer.optimize(k=1)
        meta_wall = time.perf_counter() - start
        return (exact.best.predicted_latency_s, exact_wall,
                meta.best.predicted_latency_s, meta_wall,
                meta_optimizer.log.evaluations)

    exact_lat, exact_wall, meta_lat, meta_wall, evals = run_once(
        benchmark, compare
    )
    print(f"\nexact:  {exact_lat * 1e3:.3f} ms in {exact_wall * 1e3:.0f} ms")
    print(f"meta:   {meta_lat * 1e3:.3f} ms in {meta_wall * 1e3:.0f} ms "
          f"({evals} evaluations)")
    print(f"optimality gap: {meta_lat / exact_lat - 1:+.1%}")

    # Exactness: the exact optimum is never beaten and the
    # metaheuristic lands within a modest gap on this space.
    assert meta_lat >= exact_lat - 1e-12
    assert meta_lat <= exact_lat * 1.3

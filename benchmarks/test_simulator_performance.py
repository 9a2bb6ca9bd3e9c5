"""Benchmarks for the DES hot path (autotuning re-runs the simulator
hundreds of times, so per-phase cost is the level-3 bottleneck).

The DES runs one event loop, the compiled ``vector`` kernel; its scalar
``reference`` oracle is test equipment
(``tests/runtime/reference_engine.py``).  This module builds both
through ``reference_engine.build``, times them on the 300-task
AlexNet-sparse case and writes every case's wall time to
``BENCH_simulator.json`` at the repo root - the perf trajectory CI
uploads so each PR shows its speed delta.  The engine-vs-reference case
doubles as the CI perf gate: the kernel must not be slower than the
reference loop it replaced.
"""

import os
import time

import pytest

from repro.apps import build_alexnet_sparse
from repro.core import Chunk
from repro.runtime import simulator
from repro.core.serialization import write_json_report
from repro.soc import get_platform
from tests.runtime import reference_engine

N_TASKS = 300
BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_simulator.json",
)

#: case name -> {"mean_s": ..., "min_s": ...} (plus derived ratios),
#: flushed to BENCH_simulator.json when the module finishes.
RESULTS = {}


def _best_of(fn, rounds=5):
    """(best, mean) wall seconds over ``rounds`` calls."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), sum(times) / len(times)


def _record(case, min_s, mean_s, **extra):
    entry = {"min_s": round(min_s, 6), "mean_s": round(mean_s, 6)}
    entry.update(extra)
    RESULTS[case] = entry


@pytest.fixture(scope="module")
def make_executor():
    platform = get_platform("pixel7a")
    application = build_alexnet_sparse()
    chunks = [Chunk(0, 5, "big"),
              Chunk(5, application.num_stages, "gpu")]

    def build(engine="vector"):
        return reference_engine.build(application, chunks, platform,
                                      engine=engine)

    return build


@pytest.fixture(scope="module", autouse=True)
def bench_report():
    """Write collected timings to BENCH_simulator.json on teardown."""
    yield
    if not RESULTS:
        return
    payload = {
        "benchmark": "simulator",
        "n_tasks": N_TASKS,
        "case": "alexnet-sparse big(0:5)|gpu(5:9) on pixel7a",
        "results": dict(sorted(RESULTS.items())),
    }
    write_json_report(BENCH_PATH, payload)


def test_simulated_run_wall_time(benchmark, make_executor):
    executor = make_executor()
    result = benchmark(executor.run, N_TASKS)
    assert result.n_tasks == N_TASKS
    _record("vector_run", benchmark.stats["min"],
            benchmark.stats["mean"], engine="vector")
    # Generous absolute ceiling for slow CI machines; the paper-scale
    # autotuning campaign runs ~20 of these back to back.
    assert benchmark.stats["mean"] < 0.25


def test_reference_engine_wall_time(benchmark, make_executor):
    executor = make_executor(engine="reference")
    result = benchmark(executor.run, N_TASKS)
    assert result.n_tasks == N_TASKS
    _record("reference_run", benchmark.stats["min"],
            benchmark.stats["mean"], engine="reference")


def test_vector_engine_not_slower_than_reference(make_executor):
    """The CI perf gate: on warm executors (caches populated), the
    vectorized engine's best-of-N must not lose to the reference loop
    it replaced - a regression here silently slows every autotuning
    round, serve tick, and soak in the repo."""
    vector = make_executor()
    reference = make_executor(engine="reference")
    vector.run(N_TASKS)
    reference.run(N_TASKS)

    vec_min, vec_mean = _best_of(lambda: vector.run(N_TASKS))
    ref_min, ref_mean = _best_of(lambda: reference.run(N_TASKS))
    speedup = ref_min / vec_min
    _record("engine_vs_reference", vec_min, vec_mean,
            reference_min_s=round(ref_min, 6),
            reference_mean_s=round(ref_mean, 6),
            speedup=round(speedup, 3))
    print(f"\nvector best {vec_min * 1e3:.2f} ms, "
          f"reference best {ref_min * 1e3:.2f} ms "
          f"({speedup:.2f}x)")
    assert vec_min <= ref_min


def test_noise_cache_makes_reruns_cheaper(make_executor, monkeypatch):
    """Execution jitter is a memo of pure columns keyed by (platform,
    schedule, chunk-local stage, window size), not executor state.  The
    serving path keeps one executor per deployed (application,
    schedule), but executors of one schedule are still built again - a
    same-name application of other work, a deployment the bounded table
    let go - so the property it needs is that a *second, fresh* executor
    of a schedule fills no column and constructs no ``Generator`` while
    its window's duration table is laid out.  Asserted on the streams
    counted at ``lognormal_draws`` - wall-clock cold-vs-warm comparisons
    flake on loaded CI machines - with timings printed for the
    curious."""
    constructed = []
    lognormal_draws = simulator.lognormal_draws
    monkeypatch.setattr(
        simulator, "lognormal_draws",
        lambda seeds, sigma, count: constructed.append(len(seeds))
        or lognormal_draws(seeds, sigma, count))
    simulator._jitter_column.cache_clear()
    start = time.perf_counter()
    make_executor().run(N_TASKS)
    cold_s = time.perf_counter() - start
    cold = sum(constructed)
    # One column per chunk-local stage of the longer chunk, one draw
    # per task in each.
    assert constructed == [N_TASKS] * 5

    start = time.perf_counter()
    make_executor().run(N_TASKS)
    warm_s = time.perf_counter() - start
    print(f"\ncold run {cold_s * 1e3:.1f} ms "
          f"({cold} generator constructions in {len(constructed)} "
          f"columns), fresh-executor rerun {warm_s * 1e3:.1f} ms "
          f"({sum(constructed) - cold} constructions)")
    assert sum(constructed) == cold
    memo = simulator._jitter_column.cache_info()
    assert memo.currsize == len(constructed) <= memo.maxsize

"""Benchmark guard: observability must be free when disabled.

The instrumentation contract (see ``docs/architecture.md``,
"Observability") is that every hot path guards on ``tracer().enabled``
/ ``metrics().enabled`` **once per run**, never per task or per event.
These tests enforce both halves of that contract on the DES hot path:

* the number of guard evaluations per simulated run is a small
  constant, independent of the task count (a counting sentinel stands
  in for the disabled instruments);
* the measured cost of those evaluations is under 2% of the run's own
  wall time - by a huge margin, since a handful of attribute reads
  cannot compete with a 300-task simulation.
"""

import dataclasses
import time

import pytest

from repro.apps import build_alexnet_sparse
from repro.apps.synthetic import build_synthetic_application
from repro.core import Chunk
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer
from repro.runtime import SimulatedPipelineExecutor
from repro.fleet import FleetConfig
from repro.serve import TenantSpec
from repro.soc import get_platform
from repro.traffic import OpenLoopDriver
from tests.serve.conftest import one_shard_router

N_TASKS = 300


class CountingFlag:
    """Falsy sentinel that counts how often the guard consults it."""

    def __init__(self):
        self.checks = 0

    def __bool__(self):
        self.checks += 1
        return False


def make_executor():
    platform = get_platform("pixel7a")
    application = build_alexnet_sparse()
    chunks = [Chunk(0, 5, "big"),
              Chunk(5, application.num_stages, "gpu")]
    return SimulatedPipelineExecutor(application, chunks, platform)


def counted_run(n_tasks):
    """Run the DES with counting sentinels installed; return checks."""
    trc, reg = Tracer(enabled=False), MetricsRegistry(enabled=False)
    trc.enabled = CountingFlag()
    reg.enabled = CountingFlag()
    prev_tracer, prev_metrics = set_tracer(trc), set_metrics(reg)
    try:
        make_executor().run(n_tasks)
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
    return trc.enabled.checks + reg.enabled.checks


def test_guard_checks_constant_per_run():
    small = counted_run(30)
    large = counted_run(N_TASKS)
    # Per-run, not per-task: 10x the tasks, identical guard count.
    assert large == small
    assert large <= 8


def test_disabled_overhead_under_two_percent():
    executor = make_executor()
    executor.run(N_TASKS)  # warm the noise cache first
    start = time.perf_counter()
    executor.run(N_TASKS)
    run_s = time.perf_counter() - start

    checks = counted_run(N_TASKS)
    # Cost of one guard evaluation: a global read + attribute read +
    # truthiness test, measured directly.
    trc = Tracer(enabled=False)
    reps = 100_000
    start = time.perf_counter()
    for _ in range(reps):
        if trc.enabled:
            pass  # pragma: no cover
    per_check_s = (time.perf_counter() - start) / reps

    overhead_s = checks * per_check_s
    fraction = overhead_s / run_s
    print(f"\n{checks} guard checks x {per_check_s * 1e9:.0f} ns "
          f"= {overhead_s * 1e6:.2f} us over a {run_s * 1e3:.1f} ms run "
          f"({fraction * 100:.4f}%)")
    assert fraction < 0.02


def make_server(attribution=False, window_tasks=4):
    """Two tenants on a one-shard fleet, ready to run."""
    router = one_shard_router(
        max_ticks=16, max_impact_ratio=1.5, max_partition_classes=None,
        attribution=attribution)
    return OpenLoopDriver(router, [TenantSpec(
        name=f"tenant-{index}",
        application=build_synthetic_application(
            seed=7 + index, stage_count=2,
        ),
        priority=1,
        windows=3,
        window_tasks=window_tasks,
    ) for index in range(2)])


def test_attribution_off_never_reaches_decompose(monkeypatch):
    """With ``attribution=False`` the blame machinery is never even
    imported into the window path - one config-bool short-circuit."""
    import repro.obs.attribution as attribution

    calls = {"n": 0}
    real = attribution.decompose

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(attribution, "decompose", counting)
    make_server(attribution=False).run()
    assert calls["n"] == 0
    make_server(attribution=True).run()
    assert calls["n"] > 0


def test_attribution_guard_is_per_window_not_per_task():
    """The attribution-off guard is consulted O(windows) times - the
    task count never enters (same discipline as the DES guards)."""

    def counted(window_tasks):
        driver = make_server(window_tasks=window_tasks)
        flag = CountingFlag()
        # The shard hands its server generations this copy of the
        # fleet's config; the router's own read stays off the count.
        shard = driver.router.shards[0]
        shard.config = dataclasses.replace(shard.config, attribution=flag)
        driver.run()
        return flag.checks

    small, large = counted(4), counted(16)
    # 4x the tasks per window, identical guard count; and the count
    # is bounded by the windows actually served (2 tenants x 3).
    assert large == small
    assert large <= 2 * 3


def test_attribution_off_overhead_under_two_percent():
    """The cost of the off-path guard (a frozen-dataclass attribute
    read per served window) is noise against the run itself."""
    driver = make_server()
    start = time.perf_counter()
    report = driver.run().fleet_report
    run_s = time.perf_counter() - start
    windows = sum(m.windows_served for m in report.tenants.values())

    config = FleetConfig()
    reps = 100_000
    start = time.perf_counter()
    for _ in range(reps):
        if config.attribution:
            pass  # pragma: no cover
    per_check_s = (time.perf_counter() - start) / reps

    fraction = (windows * per_check_s) / run_s
    print(f"\n{windows} attribution guards x "
          f"{per_check_s * 1e9:.0f} ns over a {run_s * 1e3:.1f} ms "
          f"serve run ({fraction * 100:.5f}%)")
    assert fraction < 0.02


def test_disabled_run_wall_time(benchmark):
    """Absolute ceiling with the (disabled) instrumentation in place -
    the same bar the uninstrumented simulator benchmark holds."""
    executor = make_executor()
    result = benchmark(executor.run, N_TASKS)
    assert result.n_tasks == N_TASKS
    assert benchmark.stats["mean"] < 0.25

"""Byte-for-byte equivalence of the DES kernel and its reference loop.

The compiled ``vector`` kernel is only allowed to be *faster* than the
``reference`` scalar loop (``reference_engine.py``) - never different.
Every test serializes the full :class:`SimulatedRunResult`
(completions, busy seconds, recorded spans, steady interval, event
counts) from both engines and compares the JSON bytes, across
schedules, depths, arrival processes, PU dropouts, and external load.  The kernel's rate memoization is exact, not approximate: rates
between events are a pure function of the discrete phase signature, so
a cached vector must be bit-equal to a recomputed one - which is what
byte-comparison (rather than ``pytest.approx``) pins down.
"""

import dataclasses
import json

import pytest

import repro.runtime.simulator as sim
from repro.apps import build_octree_application
from repro.core import Chunk
from repro.errors import PuFailureError
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    PuDropoutSpec,
    SimulatedPipelineExecutor,
)
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM
from tests.runtime.reference_engine import ReferenceEngine, build, using


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


SCHEDULES = {
    "serial": [Chunk(0, 7, BIG)],
    "two-way": [Chunk(0, 4, BIG), Chunk(4, 7, GPU)],
    "four-way": [Chunk(0, 2, BIG), Chunk(2, 4, GPU),
                 Chunk(4, 6, MEDIUM), Chunk(6, 7, LITTLE)],
    "max-split": [Chunk(0, 1, LITTLE), Chunk(1, 2, MEDIUM),
                  Chunk(2, 5, GPU), Chunk(5, 7, BIG)],
}

EXTERNAL = ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=2.0)


def late_dropout_injector():
    """Consulted at every task start, fires on none of a 20-task
    window's."""
    return FaultInjector(FaultPlan(dropouts=[
        PuDropoutSpec(pu_class=GPU, after_task=20),
    ]))


def serialized(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def run_both(app, pixel, chunks, n=20, record_trace=True, **kwargs):
    run_args = {
        key: kwargs.pop(key)
        for key in ("arrival_period_s", "external_load")
        if key in kwargs
    }
    results = []
    for engine in ("vector", "reference"):
        executor = build(app, chunks, pixel, engine=engine, **kwargs)
        results.append(
            executor.run(n, record_trace=record_trace, **run_args)
        )
    return results


def assert_equivalent(app, pixel, chunks, **kwargs):
    vector, reference = run_both(app, pixel, chunks, **kwargs)
    assert serialized(vector) == serialized(reference)


LOOPS = {"vector": sim._VectorEngine, "reference": ReferenceEngine}


def loop_of(executor):
    return type(executor._run_window.__self__)


class TestSessionEngine:
    """``--sim-engine`` must reach every executor: were it a no-op, the
    suites CI runs "on the reference engine" would quietly run the
    kernel twice."""

    def test_a_fresh_executor_runs_the_sessions_loop(
            self, app, pixel, pytestconfig):
        engine = pytestconfig.getoption("--sim-engine")
        executor = SimulatedPipelineExecutor(app, SCHEDULES["two-way"],
                                             pixel)
        assert loop_of(executor) is LOOPS[engine]

    @pytest.mark.parametrize("engine", sorted(LOOPS))
    def test_a_named_loop_beats_the_session(self, app, pixel, engine):
        for session in sorted(LOOPS):
            with using(session):
                executor = build(app, SCHEDULES["two-way"], pixel,
                                 engine=engine)
                assert loop_of(executor) is LOOPS[engine]
                assert loop_of(build(app, SCHEDULES["two-way"],
                                     pixel)) is LOOPS[session]


class TestByteEquivalence:
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_across_schedules(self, app, pixel, schedule):
        assert_equivalent(app, pixel, SCHEDULES[schedule])

    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    def test_across_depths(self, app, pixel, depth):
        assert_equivalent(app, pixel, SCHEDULES["two-way"], depth=depth)

    @pytest.mark.parametrize("period", [0.0005, 0.005, 0.05])
    def test_across_arrival_periods(self, app, pixel, period):
        assert_equivalent(app, pixel, SCHEDULES["four-way"],
                          arrival_period_s=period)

    def test_with_external_load(self, app, pixel):
        assert_equivalent(app, pixel, SCHEDULES["four-way"],
                          external_load=EXTERNAL)

    def test_with_same_class_external_share(self, app, pixel):
        # External load on a chunk's *own* class exercises the
        # fair-share rate division.
        assert_equivalent(
            app, pixel, SCHEDULES["two-way"],
            external_load=ExternalLoad(busy={BIG: 0.7},
                                       demand_gbps=1.0),
        )

    def test_pu_dropout_raises_in_both(self, app, pixel):
        logs = []
        for engine in ("vector", "reference"):
            injector = FaultInjector(FaultPlan(dropouts=[
                PuDropoutSpec(pu_class=GPU, after_task=4),
            ]))
            executor = build(app, SCHEDULES["two-way"], pixel,
                             engine=engine, fault_injector=injector)
            with pytest.raises(PuFailureError):
                executor.run(20)
            logs.append(injector.events)
        # Task 4 enters the GPU chunk's first stage, global stage 4.
        assert logs[0] == logs[1]
        assert [(e.kind, e.pu_class, e.stage_index, e.task_id)
                for e in logs[0]] == [("pu-dropout", GPU, 4, 4)]

    def test_everything_at_once(self, app, pixel):
        assert_equivalent(
            app, pixel, SCHEDULES["max-split"], n=25, depth=3,
            arrival_period_s=0.002, external_load=EXTERNAL,
        )

    def test_single_task(self, app, pixel):
        assert_equivalent(app, pixel, SCHEDULES["two-way"], n=1)

    def test_rerun_on_one_executor_stays_identical(self, app, pixel):
        # Warm caches (rate signatures, noise) must not change results.
        executor = SimulatedPipelineExecutor(
            app, SCHEDULES["four-way"], pixel
        )
        first = serialized(executor.run(
            20, record_trace=True, external_load=EXTERNAL))
        second = serialized(executor.run(
            20, record_trace=True, external_load=EXTERNAL))
        reference = serialized(build(
            app, SCHEDULES["four-way"], pixel, engine="reference",
        ).run(20, record_trace=True, external_load=EXTERNAL))
        assert first == second == reference


class TestNoiseMemo:
    """Execution jitter is one memo of pure columns - no executor state
    - so neither a cleared memo nor a brand new executor may change a
    single byte of a run (the columns' numpy oracle is
    ``test_jitter_columns.py``)."""

    @pytest.mark.parametrize("faulty", [False, True],
                             ids=["clean", "faults"])
    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_cold_equals_warm(self, app, pixel, engine, faulty):
        def fresh():
            return build(
                app, SCHEDULES["four-way"], pixel, engine=engine,
                fault_injector=late_dropout_injector() if faulty else None,
            )

        def run(executor):
            return serialized(executor.run(
                20, record_trace=True, external_load=EXTERNAL))

        sim._jitter_column.cache_clear()
        reused = fresh()
        cold = run(reused)
        fills = sim._jitter_column.cache_info().misses
        assert fills > 0
        warm_reused = run(reused)
        warm_fresh = run(fresh())
        # A fresh executor of a schedule already seen fills no column.
        assert sim._jitter_column.cache_info().misses == fills
        sim._jitter_column.cache_clear()
        cold_again = run(fresh())
        assert cold == warm_reused == warm_fresh == cold_again


class TestBatching:
    def test_simulate_batch_collects_errors(self, app, pixel):
        healthy = SimulatedPipelineExecutor(
            app, SCHEDULES["two-way"], pixel
        )
        doomed = SimulatedPipelineExecutor(
            app, SCHEDULES["two-way"], pixel,
            fault_injector=FaultInjector(FaultPlan(dropouts=[
                PuDropoutSpec(pu_class=GPU, after_task=0),
            ])),
        )
        outcomes = sim.simulate_batch(
            [sim.SimWindow(healthy, 5), sim.SimWindow(doomed, 5),
             sim.SimWindow(healthy, 8)],
            collect_errors=True,
        )
        assert outcomes[0].result is not None and outcomes[0].error is None
        assert isinstance(outcomes[1].error, PuFailureError)
        assert outcomes[1].result is None
        assert outcomes[2].result.n_tasks == 8

    def test_simulate_batch_propagates_without_collect(self, app, pixel):
        doomed = SimulatedPipelineExecutor(
            app, SCHEDULES["two-way"], pixel,
            fault_injector=FaultInjector(FaultPlan(dropouts=[
                PuDropoutSpec(pu_class=GPU, after_task=0),
            ])),
        )
        with pytest.raises(PuFailureError):
            sim.simulate_batch([sim.SimWindow(doomed, 5)])

"""One executor per deployment: load and tenant are per-window arguments.

The plan cache builds a :class:`SimulatedPipelineExecutor` once per
deployed (application, schedule) and every tenant on that deployment
streams its windows through it, each under that tick's co-load.  The
oracle is the design it replaced - a fresh executor built for every
window: driven through any interleaving of several tenants' windows,
the long-lived executor must return, window for window, a
:class:`SimulatedRunResult` equal field for field - and so must the
:class:`~repro.core.plan_cache.Deployment` around it, which hands back
the results it remembers instead of running the DES again.

What could break that is state leaking between windows: a compiled
duration table that outlives its window, a rate memo that answers for
the wrong co-load, or a remembered result that answers for the wrong
window.  The seeded mutants at the bottom plant exactly those and must
be caught by the same oracles.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plan_cache as plan_cache
import repro.runtime.simulator as sim
from repro.apps import build_octree_application
from repro.core import Chunk
from repro.core.plan_cache import Deployment
from repro.runtime import SimulatedPipelineExecutor
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM
from tests.runtime import reference_engine

PLATFORM = get_platform("pixel7a")
APP = build_octree_application(n_points=20_000)

SCHEDULES = {
    "serial": [Chunk(0, 7, BIG)],
    "two-way": [Chunk(0, 4, BIG), Chunk(4, 7, GPU)],
    "four-way": [Chunk(0, 2, BIG), Chunk(2, 4, GPU),
                 Chunk(4, 6, MEDIUM), Chunk(6, 7, LITTLE)],
}

#: Demands sized to bite: pixel7a's memory controller only throttles
#: once the total passes ~30 GB/s.
A = ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=40.0)
B = ExternalLoad(busy={MEDIUM: 0.8, LITTLE: 0.4}, demand_gbps=0.5)
#: A with only its bandwidth demand changed.
A_THIRSTY = ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=80.0)

#: The per-window loads a residency can see: nothing, an empty load,
#: two unrelated co-loads, A rebuilt in another insertion order (same
#: key), a share of a chunk's own class, bandwidth only, compute only,
#: a zero-fraction entry (a different key with the same rates).
LOADS = [
    None,
    ExternalLoad(),
    A,
    B,
    ExternalLoad(busy={GPU: 0.25, BIG: 0.5}, demand_gbps=40.0),
    A_THIRSTY,
    ExternalLoad(busy={BIG: 0.7}, demand_gbps=1.0),
    A.bandwidth_only(),
    A.compute_only(),
    ExternalLoad(busy={BIG: 0.5, GPU: 0.25, LITTLE: 0.0},
                 demand_gbps=40.0),
]

ENGINES = ("vector", "reference")
TENANTS = ("a", "b", "c")


def serialized(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def diverging_windows(chunks, engine, windows):
    """Indices of the windows on which one long-lived executor and a
    fresh executor per window disagree.

    ``windows`` is a sequence of ``(tenant, external_load, n_tasks,
    record_trace, arrival_period_s)``.
    """
    resident = reference_engine.build(APP, chunks, PLATFORM, engine=engine)
    out = []
    for index, (tenant, load, n_tasks, trace, period) in enumerate(
            windows):
        kwargs = {"record_trace": trace, "arrival_period_s": period,
                  "external_load": load}
        fresh = reference_engine.build(APP, chunks, PLATFORM, engine=engine)
        if (serialized(resident.run(n_tasks, tenant=tenant, **kwargs))
                != serialized(fresh.run(n_tasks, **kwargs))):
            out.append(index)
    return out


def diverging_served(chunks, engine, windows):
    """Indices of the windows that come off one :class:`Deployment` -
    remembered or simulated, as the serving layer asks for them - unlike
    a fresh executor's.

    ``windows`` is a sequence of ``(tenant, external_load, n_tasks)``.
    """
    deployment = Deployment(
        reference_engine.build(APP, chunks, PLATFORM, engine=engine),
        offered=ExternalLoad(),
    )
    out = []
    for index, (tenant, load, n_tasks) in enumerate(windows):
        external = load if load is not None else ExternalLoad()
        (result,) = sim.simulate_batch([sim.SimWindow(
            deployment.executor, n_tasks, record_trace=True,
            external_load=external, tenant=tenant,
            remembered=deployment.remembered(external, n_tasks),
        )])
        deployment.remember(external, n_tasks, result)
        fresh = reference_engine.build(APP, chunks, PLATFORM, engine=engine)
        if serialized(result) != serialized(fresh.run(
                n_tasks, record_trace=True, external_load=external)):
            out.append(index)
    return out


def windows_of(loads, n_tasks=8):
    return [(TENANTS[index % len(TENANTS)], load, n_tasks, True, None)
            for index, load in enumerate(loads)]


WINDOW = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(LOADS),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
    st.sampled_from([None, 0.0, 0.0005, 0.02]),
)
SERVED = st.tuples(
    st.sampled_from(TENANTS),
    st.sampled_from(LOADS),
    st.integers(min_value=1, max_value=4),
)


class TestResidentEqualsFresh:
    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=25, deadline=None)
    @given(schedule=st.sampled_from(sorted(SCHEDULES)),
           windows=st.lists(WINDOW, min_size=1, max_size=8))
    def test_any_sequence_of_windows(self, engine, schedule, windows):
        assert diverging_windows(
            SCHEDULES[schedule], engine, windows) == []

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_every_load_then_back_again(self, engine, schedule):
        # A -> B -> A and repeats: a memo entry learned under one
        # co-load is found again, and only under that co-load.
        loads = LOADS + LOADS[::-1] + [A, A, B, A, None, A]
        assert diverging_windows(
            SCHEDULES[schedule], engine, windows_of(loads)) == []

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kept", [2, None],
                             ids=["evicting", "shipped-bound"])
    @settings(max_examples=25, deadline=None)
    @given(schedule=st.sampled_from(sorted(SCHEDULES)),
           windows=st.lists(SERVED, min_size=1, max_size=12))
    def test_any_interleaving_of_tenants_on_one_deployment(
            self, engine, kept, schedule, windows):
        shipped = plan_cache._RESULTS_KEPT
        plan_cache._RESULTS_KEPT = kept or shipped
        try:
            assert diverging_served(
                SCHEDULES[schedule], engine, windows) == []
        finally:
            plan_cache._RESULTS_KEPT = shipped

    def test_results_carry_no_tenant(self):
        executor = SimulatedPipelineExecutor(
            APP, SCHEDULES["two-way"], PLATFORM)
        result = executor.run(4, record_trace=True, tenant="a")
        assert result.spans
        assert {span.tenant for span in result.spans} == {None}

    def test_empty_load_is_no_load(self):
        executor = SimulatedPipelineExecutor(
            APP, SCHEDULES["two-way"], PLATFORM)
        bare = serialized(executor.run(8))
        for empty in (ExternalLoad(), ExternalLoad(busy={BIG: 0.0})):
            assert serialized(
                executor.run(8, external_load=empty)) == bare

    def test_the_memo_is_kept_per_co_load(self):
        executor = reference_engine.build(
            APP, SCHEDULES["four-way"], PLATFORM, engine="vector")
        calls = []
        engine = executor._run_window.__self__
        original = engine._rates_for
        engine._rates_for = lambda key, external: (
            calls.append(key) or original(key, external))
        executor.run(8, external_load=A)
        learned = len(calls)
        assert learned > 0
        executor.run(8, external_load=A)
        # Same key, different instance and insertion order.
        executor.run(8, external_load=LOADS[4])
        assert len(calls) == learned      # every signature recalled
        executor.run(8, external_load=B)
        assert len(calls) > learned       # a new co-load is a miss
        relearned = len(calls)
        executor.run(8, external_load=A)  # ... that evicted nothing
        assert len(calls) == relearned


class TestRememberedWindow:
    """A window may cross the batch carrying the result its caller
    already holds; the batch hands it back instead of simulating."""

    @pytest.mark.parametrize("collect", [False, True])
    def test_the_result_is_returned_in_place(self, collect):
        executor = SimulatedPipelineExecutor(
            APP, SCHEDULES["two-way"], PLATFORM)
        held = executor.run(8, record_trace=True, external_load=A)
        events = []
        original = executor._run_window
        executor._run_window = lambda *args: (
            events.append(args[0]) or original(*args))
        out = sim.simulate_batch([
            sim.SimWindow(executor, 5, external_load=B),
            sim.SimWindow(executor, 8, record_trace=True,
                          external_load=A, remembered=held),
            sim.SimWindow(executor, 6),
        ], collect_errors=collect)
        results = [o.result for o in out] if collect else out
        assert results[1] is held
        assert [r.n_tasks for r in results] == [5, 8, 6]
        assert events == [5, 6]            # the DES ran twice only

    def test_the_tracer_cannot_tell(self):
        from repro.obs import capture

        # The second window is another tenant's: remembered or not,
        # it must reach the tracer under that tenant's name.
        def traced(remember):
            executor = SimulatedPipelineExecutor(
                APP, SCHEDULES["two-way"], PLATFORM)
            with capture() as cap:
                first = executor.run(8, record_trace=True,
                                     external_load=A, tenant="a")
                sim.simulate_batch([sim.SimWindow(
                    executor, 8, record_trace=True, external_load=A,
                    tenant="b",
                    remembered=first if remember else None)])
                return cap.events, cap.metrics.snapshot()

        events, _ = traced(remember=True)
        assert traced(remember=True) == traced(remember=False)
        tags = [dict(event.attrs)["tenant"] for event in events
                if event.name.startswith("chunk")]
        assert sorted(set(tags)) == ["a", "b"]
        assert tags == sorted(tags) and tags.count("a") == tags.count("b")


class TestAttributionInputs:
    def test_computed_once_per_executor(self):
        executor = SimulatedPipelineExecutor(
            APP, SCHEDULES["four-way"], PLATFORM)
        first = executor.attribution_inputs()
        executor.run(6, external_load=A)
        assert executor.attribution_inputs() is first
        twin = SimulatedPipelineExecutor(
            APP, SCHEDULES["four-way"], PLATFORM)
        assert twin.attribution_inputs() == first


class TestSeededMutants:
    """Each mutant plants one way per-window state could leak; the
    oracle above must notice every one of them."""

    def test_memo_that_ignores_the_co_load(self, monkeypatch):
        class OneTable(dict):
            """A rate memo keyed by phase signature only."""

            def setdefault(self, key, default):
                return super().setdefault(None, default)

        original = sim._VectorEngine.__init__

        def init(engine, executor):
            original(engine, executor)
            engine.rate_caches = OneTable()

        monkeypatch.setattr(sim._VectorEngine, "__init__", init)
        assert diverging_windows(
            SCHEDULES["four-way"], "vector", windows_of([A, B, A])
        ) == [1]

    def test_key_that_drops_the_demand(self, monkeypatch):
        monkeypatch.setattr(ExternalLoad, "key", property(
            lambda load: (tuple(sorted(load.busy.items())), 0.0)))
        assert diverging_windows(
            SCHEDULES["four-way"], "vector",
            windows_of([A, A_THIRSTY, A])
        ) == [1]

    def test_result_map_keyed_without_the_window_size(self, monkeypatch):
        monkeypatch.setattr(
            Deployment, "remembered",
            lambda self, external, n_tasks:
                self._results.get(external.key))
        monkeypatch.setattr(
            Deployment, "remember",
            lambda self, external, n_tasks, result:
                self._results.__setitem__(external.key, result))
        assert diverging_served(
            SCHEDULES["two-way"], "vector",
            [("a", A, 4), ("b", A, 3), ("a", B, 3), ("c", A, 4)]
        ) == [1]

    def test_duration_table_kept_between_windows(self, monkeypatch):
        # The table of a 4-task window answering for an 8-task one:
        # the fifth task walks off its end.
        original = sim._VectorEngine._durations
        monkeypatch.setattr(
            sim._VectorEngine, "_durations",
            lambda engine, n_tasks: engine.__dict__.setdefault(
                "kept", original(engine, n_tasks)))
        windows = [("a", None, 4, True, None), ("b", None, 8, True, None)]
        with pytest.raises(IndexError):
            diverging_windows(SCHEDULES["two-way"], "vector", windows)

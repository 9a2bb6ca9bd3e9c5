"""The compiled ``vector`` kernel against the reference loop, on
generated pipelines rather than one application on one SoC.

``test_engine_equivalence.py`` holds the two engines equal on the octree
pipeline on the Pixel.  Here hypothesis draws the pipeline itself: the
stage-cost vector (``overhead_s`` and ``work_s`` each exactly zero a
quarter of the time, so every shape of phase program occurs), width 1-4,
depth, window size, arrival period around the bottleneck, external load
with and without a share of a chunk's own class, and a PU dropout (the
only fault the DES checks).  The engines must agree on every byte of
the result - completions, busy seconds, spans, ``total_s``,
``n_events`` - or on the error raised, and on what the fault injector
recorded, in order.

The seeded mutants at the bottom are textual edits of the kernel's own
source (asserted to still apply, so a rewrite cannot retire one
silently); each plants one way a compiled window could go wrong, and the
same properties must notice every one of them.
"""

import copy
import dataclasses
import inspect
import json

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.runtime.simulator as sim
from repro.core import Application, Chunk, Stage
from repro.errors import ReproError
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    PuDropoutSpec,
)
from repro.soc import get_platform
from repro.soc.cost_model import StageCost
from repro.soc.interference import ExternalLoad
from repro.soc.workprofile import WorkProfile
from tests.runtime import reference_engine

PIXEL = get_platform("pixel7a")
CLASSES = sorted(PIXEL.pu_classes())
MAX_STAGES = 7


def platform_with(costs):
    """The Pixel, its roofline replaced by a generated cost vector (a
    stage's ``flops`` carries its index)."""
    platform = copy.copy(PIXEL)
    platform.stage_cost = lambda work, pu_class: costs[int(work.flops)]
    return platform


def application_of(n_stages):
    return Application("generated", [
        Stage.model_only(f"s{index}", WorkProfile(flops=index,
                                                  bytes_moved=0))
        for index in range(n_stages)
    ])


def seconds(low, high):
    """A duration that is exactly zero a quarter of the time."""
    return st.one_of(
        st.just(0.0),
        *[st.floats(min_value=low, max_value=high, allow_nan=False)] * 3)


STAGE_COST = st.builds(
    StageCost,
    overhead_s=seconds(1e-6, 1e-3),
    work_s=seconds(1e-6, 1e-2),
    memory_boundedness=st.floats(min_value=0.0, max_value=1.0),
    demand_gbps=st.floats(min_value=0.0, max_value=60.0),
)


@dataclasses.dataclass
class Case:
    costs: list
    chunks: list
    depth: int
    n_tasks: int
    period: object
    load: object
    plan: object

    def executor(self, engine, injector=None):
        return reference_engine.build(
            application_of(len(self.costs)), self.chunks,
            platform_with(self.costs), engine=engine, depth=self.depth,
            fault_injector=injector)


@st.composite
def fault_plans(draw, n_tasks):
    if not draw(st.booleans()):
        return None
    return FaultPlan(dropouts=[draw(st.builds(
        PuDropoutSpec, pu_class=st.sampled_from(CLASSES),
        after_task=st.integers(min_value=0, max_value=n_tasks - 1)))])


@st.composite
def cases(draw, faults=True):
    costs = draw(st.lists(STAGE_COST, min_size=1, max_size=MAX_STAGES))
    n = len(costs)
    width = draw(st.integers(min_value=1, max_value=min(4, n)))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=max(n - 1, 1)),
        min_size=width - 1, max_size=width - 1, unique=True)))
    bounds = [0] + cuts + [n]
    order = draw(st.permutations(CLASSES))
    chunks = [Chunk(bounds[i], bounds[i + 1], order[i])
              for i in range(width)]
    n_tasks = draw(st.integers(min_value=1, max_value=40))
    # Arrivals: a backlog, all at once, faster and slower than the
    # slowest chunk can drain them.
    bottleneck = max(
        sum(c.overhead_s + c.work_s for c in costs[chunk.start:chunk.stop])
        for chunk in chunks)
    period = draw(st.sampled_from(
        [None, 0.0, 0.5 * bottleneck, 2.0 * bottleneck]))
    # A co-runner on any classes - a chunk's own among them or not.
    busy = draw(st.dictionaries(
        st.sampled_from(CLASSES),
        st.floats(min_value=0.0, max_value=1.0), max_size=3))
    load = draw(st.one_of(st.none(), st.builds(
        ExternalLoad, busy=st.just(busy),
        demand_gbps=st.sampled_from([0.0, 2.0, 40.0]))))
    return Case(
        costs=costs, chunks=chunks,
        depth=draw(st.integers(min_value=1, max_value=n + 2)),
        n_tasks=n_tasks, period=period, load=load,
        plan=draw(fault_plans(n_tasks)) if faults else None,
    )


def serialized(result):
    return json.dumps(dataclasses.asdict(result), sort_keys=True)


def outcome(case, engine):
    """Everything one window leaves behind: the result's bytes or the
    structured error, and the injector's log in recorded order."""
    injector = FaultInjector(case.plan) if case.plan else None
    executor = case.executor(engine, injector)
    try:
        result = serialized(executor.run(
            case.n_tasks, record_trace=True,
            arrival_period_s=case.period, external_load=case.load))
    except ReproError as error:
        result = (type(error).__name__, str(error))
    return result, injector.events if injector else ()


def check_engines_agree(case):
    assert outcome(case, "vector") == outcome(case, "reference")


def check_resident_equals_fresh(case, n_tasks, load):
    """Two windows of different size and co-load back to back on one
    executor, against a fresh executor for each."""
    resident = case.executor("vector")
    for tasks, external in ((case.n_tasks, case.load), (n_tasks, load)):
        kwargs = {"record_trace": True, "arrival_period_s": case.period,
                  "external_load": external}
        assert serialized(resident.run(tasks, **kwargs)) == serialized(
            case.executor("vector").run(tasks, **kwargs))


SECOND_WINDOW = (
    st.integers(min_value=1, max_value=40),
    st.one_of(st.none(), st.just(
        ExternalLoad(busy={"big": 0.5, "gpu": 0.25}, demand_gbps=40.0))),
)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_vector_equals_reference(case):
    check_engines_agree(case)


@settings(max_examples=60, deadline=None)
@given(cases(faults=False), *SECOND_WINDOW)
def test_back_to_back_windows_equal_fresh_executors(case, n_tasks, load):
    check_resident_equals_fresh(case, n_tasks, load)


def test_a_zero_work_stage_makes_no_event_of_its_own():
    # Pinned beside the generated suite: the shapes a phase program
    # distinguishes, by event count on one server and one task.
    def events(overhead_s, work_s):
        case = Case(costs=[StageCost(overhead_s, work_s, 0.5, 1.0)],
                    chunks=[Chunk(0, 1, "big")], depth=1, n_tasks=1,
                    period=None, load=None, plan=None)
        counts = {case.executor(engine).run(1).n_events
                  for engine in ("vector", "reference")}
        assert len(counts) == 1
        return counts.pop()

    assert events(1e-4, 1e-3) == 2
    assert events(1e-4, 0.0) == 1
    assert events(0.0, 1e-3) == 1
    assert events(0.0, 0.0) == 1


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------
def plant(monkeypatch, *edits):
    """Swap in a ``_VectorEngine`` whose source has ``edits`` applied."""
    source = inspect.getsource(sim._VectorEngine)
    for old, new in edits:
        assert source.count(old) == 1, f"mutant no longer applies: {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(sim))
    exec(source, namespace)
    monkeypatch.setattr(sim, "_VectorEngine", namespace["_VectorEngine"])


#: One fixed hunt per mutant: found or not, never shrunk.
HUNT = settings(max_examples=300, deadline=None, derandomize=True,
                database=None, phases=(Phase.generate,))


def assert_killed(check, *strategies):
    """The generated property must fail on the planted mutant."""
    with pytest.raises((AssertionError, IndexError)):
        HUNT(given(*strategies)(check))()


class TestSeededMutants:
    def test_duration_table_reused_across_window_sizes(self, monkeypatch):
        plant(monkeypatch, (
            "tables = self._durations(n_tasks)",
            "tables = self.__dict__.setdefault(\n"
            "            'kept', self._durations(n_tasks))",
        ))
        assert_killed(check_resident_equals_fresh,
                      cases(faults=False), *SECOND_WINDOW)

    def test_zero_work_step_kept_after_an_overhead(self, monkeypatch):
        plant(monkeypatch, (
            "if not steps or cost.work_s > 0.0:", "if True:"))
        assert_killed(check_engines_agree, cases())

    def test_handoff_scan_skipped_after_a_finish(self, monkeypatch):
        # Only an arrival or a hand-off downstream wakes the scan: the
        # last server, finishing with a backlog behind it, waits for one.
        finish = "ready[i + 1] += 1\n" + " " * 28 + "handoff = "
        plant(monkeypatch, (finish + "True", finish + "i + 1 < n"))
        assert_killed(check_engines_agree, cases())

    def test_fifo_counter_against_the_servers_own_finishes(
            self, monkeypatch):
        # Server 0 still reads the arrival stream; the others compare
        # against their own finishes instead of their upstream's.
        plant(monkeypatch, (
            "and started[i] < ready[i]:",
            "and started[i] < ready[i + (i > 0)]:"))
        assert_killed(check_engines_agree, cases())

    def test_jitter_keyed_by_the_global_stage(self, monkeypatch):
        plant(monkeypatch, (
            "_jitter_column(name, key, code >> 1, n_tasks)",
            "_jitter_column(name, key, start + (code >> 1), n_tasks)",
        ), (
            "for program in self.programs\n",
            "for start, program in zip(self.starts, self.programs)\n",
        ))
        assert_killed(check_engines_agree, cases())

    def test_a_kernel_compiled_for_one_width_served_to_another(
            self, monkeypatch):
        # The first kernel compiled answers for every width: a narrower
        # one leaves servers unrun, a wider one reads tables past the end.
        plant(monkeypatch, ("self._kernels.get(self.n)",
                            "next(iter(self._kernels.values()), None)"))
        assert_killed(check_engines_agree, cases())

    def test_the_unmutated_kernel_survives_the_same_hunt(self):
        HUNT(given(cases())(check_engines_agree))()

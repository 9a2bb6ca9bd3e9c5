"""Prediction oracle: the plan-level memo against fresh derivations.

``CachedPlan`` answers ``predictions`` / ``isolated_prediction`` /
``contention_span`` from a table filled once per schedule, and
``Schedule`` derives its chunk decomposition once per instance.  Both
are memos on frozen values, so they must return *exactly* (``==``, not
approx) what a fresh computation returns - for every contiguous
schedule of a generated application, on both tables, the
``isolated <= 0`` case included - and no caller may be able to reach
the shared state through what they hand out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Schedule, Stage
from repro.core.plan_cache import CachedPlan
from repro.core.profiler import ProfilingTable
from repro.stage import Application, Chunk
from repro.soc import WorkProfile
from tests.core.cp_optimizer import contiguous_schedules

PUS = ("little", "big", "gpu")

#: Table entries: ordinary latencies plus the degenerate ones the span
#: formula special-cases (an all-zero chunk makes ``isolated <= 0``).
latencies = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=10.0,
              allow_nan=False, allow_infinity=False),
)


def fresh_chunks(assignments):
    """The chunk decomposition, re-derived from the assignment."""
    chunks, start = [], 0
    for index in range(1, len(assignments) + 1):
        if (index == len(assignments)
                or assignments[index] != assignments[start]):
            chunks.append(Chunk(start, index, assignments[start]))
            start = index
    return chunks


def fresh_span(schedule, app, isolated, interference):
    """``contention_span`` as it was before the memo."""
    base = schedule.predicted_latency(app, isolated)
    if base <= 0:
        return 1.0
    return max(schedule.predicted_latency(app, interference) / base, 1.0)


def never_solves(plan):
    raise AssertionError("a prediction does not need the solved list")


@st.composite
def plans(draw):
    """A generated application, both tables, and a plan over them (the
    memo serves candidates and rescheduler-only schedules alike, so
    every enumerated schedule is asked for)."""
    n_stages = draw(st.integers(min_value=1, max_value=4))
    stages = [
        Stage.model_only(f"s{i}", WorkProfile(
            flops=1e6, bytes_moved=1e5, parallelism=8.0))
        for i in range(n_stages)
    ]
    app = Application(f"gen-{n_stages}", stages)

    def table(mode):
        return ProfilingTable(
            application=app.name, platform="generated", mode=mode,
            entries={(stage, pu): draw(latencies)
                     for stage in app.stage_names for pu in PUS},
            stage_names=app.stage_names, pu_classes=PUS,
        )

    isolated, interference = table("isolated"), table("interference")
    schedules = contiguous_schedules(n_stages, PUS)
    plan = CachedPlan(
        application=app, isolated=isolated, interference=interference,
        schedulable=PUS, solve=never_solves,
    )
    return plan, schedules


class TestPlanMemo:
    @settings(max_examples=60, deadline=None)
    @given(plans())
    def test_memo_equals_fresh_prediction(self, generated):
        plan, schedules = generated
        app = plan.application
        # Twice: the first pass fills the memo, the second reads it.
        for _ in range(2):
            for schedule in schedules:
                # A structurally equal but distinct instance must hit
                # the same entry (the memo is keyed by value).
                twin = Schedule.from_assignments(schedule.assignments)
                isolated = twin.predicted_latency(app, plan.isolated)
                interference = twin.predicted_latency(
                    app, plan.interference)
                span = fresh_span(twin, app, plan.isolated,
                                  plan.interference)
                assert plan.isolated_prediction(schedule) == isolated
                assert plan.predictions(schedule)[1] == interference
                assert plan.contention_span(schedule) == span
                assert plan.predictions(twin) == (
                    isolated, interference, span)

    @settings(max_examples=20, deadline=None)
    @given(plans())
    def test_each_schedule_is_derived_from_the_tables_once(
        self, generated
    ):
        plan, schedules = generated
        calls = []
        original = Schedule.predicted_latency
        Schedule.predicted_latency = (
            lambda *args: calls.append(args) or original(*args))
        try:
            for _ in range(3):
                for schedule in schedules:
                    plan.isolated_prediction(schedule)
                    plan.predictions(schedule)[1]
                    plan.contention_span(schedule)
        finally:
            Schedule.predicted_latency = original
        # One isolated + one interference derivation per schedule,
        # however often and through whichever accessor it is asked.
        assert len(calls) == 2 * len(schedules)

    @settings(max_examples=60, deadline=None)
    @given(plans())
    def test_singles_equal_fresh_pricing_on_the_interference_table(
        self, generated
    ):
        """One candidate per schedulable class, priced as ``Schedule``
        prices it on the interference table, lowest latency first
        (class name on a tie), ranked by position - without solving."""
        plan, _ = generated
        app = plan.application
        fresh = sorted(
            (schedule.predicted_latency(app, plan.interference), pu,
             schedule.gapness(app, plan.interference), schedule)
            for pu in PUS
            for schedule in [Schedule.homogeneous(app.num_stages, pu)]
        )
        assert [(c.predicted_latency_s, c.schedule.assignments[0],
                 c.gapness_s, c.schedule) for c in plan.singles] == fresh
        assert [c.rank for c in plan.singles] == list(range(len(PUS)))
        assert plan.within(1) is plan.singles

    def test_zero_isolated_latency_spans_one(self):
        app = Application("zero", [Stage.model_only(
            "s0", WorkProfile(flops=1.0, bytes_moved=1.0,
                              parallelism=1.0))])

        def table(mode, value):
            return ProfilingTable(
                application="zero", platform="generated", mode=mode,
                entries={("s0", "big"): value},
                stage_names=("s0",), pu_classes=("big",),
            )

        plan = CachedPlan(
            application=app, isolated=table("isolated", 0.0),
            interference=table("interference", 3.0),
            schedulable=("big",), solve=never_solves,
        )
        schedule = Schedule.homogeneous(1, "big")
        assert plan.predictions(schedule) == (0.0, 3.0, 1.0)


class TestScheduleFacts:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.data())
    def test_cached_facts_equal_fresh_derivation(self, n_stages, data):
        schedule = data.draw(st.sampled_from(
            contiguous_schedules(n_stages, PUS)))
        expected = fresh_chunks(schedule.assignments)
        for _ in range(2):
            assert schedule.chunks() == expected
            assert schedule.pu_classes_used == tuple(
                chunk.pu_class for chunk in expected)
            assert schedule.class_set == frozenset(schedule.assignments)

    def test_chunks_callers_cannot_mutate_shared_state(self):
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        first = schedule.chunks()
        first.clear()
        first.append(Chunk(0, 3, "little"))
        assert schedule.chunks() == [Chunk(0, 2, "big"),
                                     Chunk(2, 3, "gpu")]
        assert schedule.chunks() is not schedule.chunks()

    def test_chunk_times_hands_out_a_fresh_dict(self):
        app = Application("app", [
            Stage.model_only(f"s{i}", WorkProfile(
                flops=1e6, bytes_moved=1e5, parallelism=8.0))
            for i in range(2)
        ])
        table = ProfilingTable(
            application="app", platform="generated", mode="isolated",
            entries={(s, pu): 1.0 for s in app.stage_names
                     for pu in PUS},
            stage_names=app.stage_names, pu_classes=PUS,
        )
        schedule = Schedule.from_assignments(["big", "gpu"])
        times = schedule.chunk_times(app, table)
        times.clear()
        assert schedule.chunk_times(app, table) == {
            Chunk(0, 1, "big"): 1.0, Chunk(1, 2, "gpu"): 1.0,
        }

    def test_cached_facts_do_not_leak_into_equality_or_hash(self):
        warm = Schedule.from_assignments(["big", "gpu"])
        warm.chunks(), warm.pu_classes_used, warm.class_set
        cold = Schedule.from_assignments(["big", "gpu"])
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

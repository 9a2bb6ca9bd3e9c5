"""Tests for Schedule: contiguity, chunks, predictions, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Schedule, Stage
from repro.core.profiler import ProfilingTable
from repro.core.schedule import validate_schedule
from repro.stage import Application
from repro.errors import ScheduleValidationError, SchedulingError
from repro.soc import WorkProfile
from tests.core.cp_optimizer import contiguous_schedules


def make_app(n=4):
    stages = [
        Stage.model_only(f"s{i}", WorkProfile(flops=1e6, bytes_moved=1e5,
                                              parallelism=10.0))
        for i in range(n)
    ]
    return Application("app", stages)


def make_table(app, pus=("big", "gpu"), base=1.0):
    entries = {}
    for i, stage in enumerate(app.stage_names):
        for j, pu in enumerate(pus):
            entries[(stage, pu)] = base * (i + 1) * (j + 1)
    return ProfilingTable(
        application=app.name, platform="test", mode="interference",
        entries=entries, stage_names=app.stage_names, pu_classes=tuple(pus),
    )


class TestContiguity:
    def test_valid_schedules(self):
        Schedule.from_assignments(["big", "big", "gpu"])
        Schedule.from_assignments(["big"])
        Schedule.from_assignments(["gpu", "big", "little"])

    def test_violation_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule.from_assignments(["big", "gpu", "big"])

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            Schedule.from_assignments([])

    def test_homogeneous(self):
        schedule = Schedule.homogeneous(5, "gpu")
        assert schedule.assignments == ("gpu",) * 5
        assert schedule.pu_classes_used == ("gpu",)


class TestChunks:
    def test_chunk_decomposition(self):
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "little"]
        )
        chunks = schedule.chunks()
        assert [(c.start, c.stop, c.pu_class) for c in chunks] == [
            (0, 2, "big"), (2, 4, "gpu"), (4, 4, "little"),
        ] or [(c.start, c.stop, c.pu_class) for c in chunks] == [
            (0, 2, "big"), (2, 3, "gpu"), (3, 4, "little"),
        ]

    def test_single_chunk(self):
        chunks = Schedule.homogeneous(3, "big").chunks()
        assert len(chunks) == 1
        assert (chunks[0].start, chunks[0].stop) == (0, 3)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1,
                    max_size=8))
    def test_property_chunks_tile_stages(self, raw):
        # Compress into a contiguity-respecting assignment first.
        seen, assignment = [], []
        for pu in raw:
            if pu in seen and (not assignment or assignment[-1] != pu):
                continue
            if pu not in seen:
                seen.append(pu)
            assignment.append(pu)
        schedule = Schedule.from_assignments(assignment)
        chunks = schedule.chunks()
        assert chunks[0].start == 0
        assert chunks[-1].stop == schedule.num_stages
        for a, b in zip(chunks, chunks[1:]):
            assert a.stop == b.start
        assert len({c.pu_class for c in chunks}) == len(chunks)


class TestPredictions:
    def test_chunk_times(self):
        app = make_app(3)
        table = make_table(app)  # big: 1,2,3  gpu: 2,4,6
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        times = schedule.chunk_times(app, table)
        values = sorted(times.values())
        assert values == pytest.approx([3.0, 6.0])

    def test_predicted_latency_is_bottleneck(self):
        app = make_app(3)
        table = make_table(app)
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        assert schedule.predicted_latency(app, table) == pytest.approx(6.0)

    def test_gapness(self):
        app = make_app(3)
        table = make_table(app)
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        assert schedule.gapness(app, table) == pytest.approx(3.0)

    def test_homogeneous_gapness_zero(self):
        app = make_app(3)
        table = make_table(app)
        assert Schedule.homogeneous(3, "big").gapness(app, table) == 0.0

    def test_serial_latency(self):
        app = make_app(3)
        table = make_table(app)
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        assert schedule.predicted_serial_latency(app, table) == (
            pytest.approx(1 + 2 + 6)
        )

    def test_stage_count_mismatch(self):
        app = make_app(3)
        table = make_table(app)
        with pytest.raises(SchedulingError):
            Schedule.homogeneous(4, "big").predicted_latency(app, table)

    def test_describe(self):
        app = make_app(3)
        schedule = Schedule.from_assignments(["big", "big", "gpu"])
        text = schedule.describe(app)
        assert "s0..s1" in text and "@big" in text and "@gpu" in text


class TestEnumeration:
    def test_counts_single_pu(self):
        assert len(contiguous_schedules(3, ["big"])) == 1

    def test_counts_two_pus(self):
        # k=1 chunks: 2; k=2 chunks: (n-1 splits) * 2 orders.
        n = 5
        schedules = contiguous_schedules(n, ["big", "gpu"])
        assert len(schedules) == 2 + 2 * (n - 1)

    def test_counts_match_formula_three_pus(self):
        # sum over k of C(n-1, k-1) * P(m, k)
        from math import comb, perm
        n, m = 4, 3
        expected = sum(
            comb(n - 1, k - 1) * perm(m, k) for k in range(1, m + 1)
        )
        assert len(contiguous_schedules(n, ["a", "b", "c"])) == expected

    def test_paper_scale_space(self):
        """N=9, M=4: the contiguous space the planner walks, ascending -
        the order the solver's depth-first search meets it in, which
        the planner's admission rule relies on."""
        schedules = contiguous_schedules(9, ["a", "b", "c", "d"])
        assert len(schedules) == 2116
        assert all(s.is_contiguous() for s in schedules)
        assignments = [s.assignments for s in schedules]
        assert assignments == sorted(assignments)

    def test_all_unique(self):
        schedules = contiguous_schedules(5, ["a", "b", "c"])
        assert len({s.assignments for s in schedules}) == len(schedules)


class TestValidateSchedule:
    """Each constraint violation raises a distinctly-named error."""

    def check(self, **kwargs):
        with pytest.raises(ScheduleValidationError) as excinfo:
            validate_schedule(**kwargs)
        return excinfo.value

    def test_valid_schedule_passes(self):
        app = make_app(4)
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "gpu"]
        )
        assert validate_schedule(schedule, app) is schedule

    def test_raw_assignments_are_promoted(self):
        validated = validate_schedule(["big", "gpu"])
        assert isinstance(validated, Schedule)
        assert validated.assignments == ("big", "gpu")

    def test_c1_empty_schedule(self):
        error = self.check(schedule=[])
        assert error.constraint == "C1"
        assert "[C1]" in str(error)

    def test_c1_missing_pu_class(self):
        error = self.check(schedule=["big", "", "big"])
        assert error.constraint == "C1"
        error = self.check(schedule=["big", None, "big"])
        assert error.constraint == "C1"

    def test_c1_stage_count_mismatch(self):
        error = self.check(schedule=["big", "gpu"],
                           application=make_app(4))
        assert error.constraint == "C1"
        assert "4" in str(error)

    def test_c2_split_chunk(self):
        error = self.check(schedule=["big", "gpu", "big"])
        assert error.constraint == "C2"
        assert "'big'" in str(error)

    def test_availability_rejects_dead_pu(self):
        error = self.check(schedule=["big", "gpu"],
                           available_pus=["big", "little"])
        assert error.constraint == "availability"
        assert "gpu" in str(error)

    def test_c3a_chunk_exceeds_upper_bound(self):
        app = make_app(4)
        table = make_table(app)
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "gpu"]
        )
        times = schedule.chunk_times(app, table)
        bound = min(times.values()) + (
            max(times.values()) - min(times.values())
        ) / 2
        error = self.check(schedule=schedule, application=app,
                           table=table, max_chunk_time_s=bound)
        assert error.constraint == "C3a"
        assert "max" in str(error)

    def test_c3b_chunk_below_lower_bound(self):
        app = make_app(4)
        table = make_table(app)
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "gpu"]
        )
        times = schedule.chunk_times(app, table)
        bound = min(times.values()) + (
            max(times.values()) - min(times.values())
        ) / 2
        error = self.check(schedule=schedule, application=app,
                           table=table, min_chunk_time_s=bound)
        assert error.constraint == "C3b"
        assert "min" in str(error)

    def test_all_four_constraints_are_distinct(self):
        app = make_app(4)
        table = make_table(app)
        good = Schedule.from_assignments(["big", "big", "gpu", "gpu"])
        times = good.chunk_times(app, table)
        mid = min(times.values()) + (
            max(times.values()) - min(times.values())
        ) / 2
        cases = {
            "C1": dict(schedule=["big"], application=app),
            "C2": dict(schedule=["big", "gpu", "big", "gpu"]),
            "C3a": dict(schedule=good, application=app, table=table,
                        max_chunk_time_s=mid),
            "C3b": dict(schedule=good, application=app, table=table,
                        min_chunk_time_s=mid),
        }
        seen = {
            name: self.check(**kwargs).constraint
            for name, kwargs in cases.items()
        }
        assert seen == {name: name for name in cases}

    def test_c3_bounds_require_table(self):
        with pytest.raises(SchedulingError, match="profiling table"):
            validate_schedule(["big", "gpu"], application=make_app(2),
                              max_chunk_time_s=1.0)

    def test_within_bounds_passes(self):
        app = make_app(4)
        table = make_table(app)
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "gpu"]
        )
        times = schedule.chunk_times(app, table)
        validate_schedule(
            schedule, app, table,
            max_chunk_time_s=max(times.values()),
            min_chunk_time_s=min(times.values()),
        )

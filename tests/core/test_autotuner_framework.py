"""Tests for the autotuner (level 3) and the end-to-end framework."""

import pytest

from repro.apps import build_octree_application
from repro.core import BetterTogether
from repro.core.autotuner import Autotuner
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.soc import get_platform
from repro.soc.pu import BIG, GPU


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def jetson():
    return get_platform("jetson_orin_nano")


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


@pytest.fixture(scope="module")
def optimization(pixel, app):
    table = BTProfiler(pixel, repetitions=5).profile(app)
    return BTOptimizer(
        app, table.restricted(pixel.schedulable_classes()), k=8
    ).optimize()


class TestAutotuner:
    def test_entries_cover_top(self, pixel, app, optimization):
        tuner = Autotuner(app, pixel, eval_tasks=10)
        result = tuner.tune(optimization, top=4)
        assert len(result.entries) == 4
        assert [e.rank for e in result.entries] == [0, 1, 2, 3]

    def test_measured_best_never_slower_than_predicted_best(
        self, pixel, app, optimization
    ):
        result = Autotuner(app, pixel, eval_tasks=10).tune(optimization)
        assert (
            result.measured_best.measured_latency_s
            <= result.predicted_best.measured_latency_s + 1e-12
        )
        assert result.autotuning_gain >= 1.0

    def test_deterministic_measurements(self, pixel, app, optimization):
        tuner = Autotuner(app, pixel, eval_tasks=10)
        a = tuner.tune(optimization, top=2)
        b = tuner.tune(optimization, top=2)
        assert [e.measured_latency_s for e in a.entries] == [
            e.measured_latency_s for e in b.entries
        ]

    def test_speedup_over_reference(self, pixel, app, optimization):
        result = Autotuner(app, pixel, eval_tasks=10).tune(
            optimization, top=3
        )
        reference = result.entries[0]
        assert reference.speedup_over(reference) == pytest.approx(1.0)

    def test_empty_candidates_rejected(self, pixel, app):
        with pytest.raises(SchedulingError):
            Autotuner(app, pixel, eval_tasks=10).tune([])

    def test_eval_tasks_validated(self, pixel, app):
        with pytest.raises(SchedulingError):
            Autotuner(app, pixel, eval_tasks=1)


class TestFramework:
    @pytest.fixture(scope="class")
    def plan(self, pixel, app):
        framework = BetterTogether(
            pixel, repetitions=5, k=8, eval_tasks=10
        )
        return framework.run(app)

    def test_plan_has_valid_schedule(self, plan, app):
        schedule = plan.schedule
        assert schedule.num_stages == app.num_stages
        assert schedule.is_contiguous()

    def test_deployed_beats_homogeneous(self, plan, pixel, app):
        from repro.baselines import measure_schedule

        cpu = measure_schedule(app, Schedule.homogeneous(7, BIG), pixel,
                               n_tasks=10)
        gpu = measure_schedule(app, Schedule.homogeneous(7, GPU), pixel,
                               n_tasks=10)
        assert plan.measured_latency_s < min(cpu, gpu)

    def test_plan_execute_streams_tasks(self, plan):
        result = plan.execute(n_tasks=8)
        assert result.n_tasks == 8
        assert result.total_s > 0

    def test_summary_mentions_schedule(self, plan):
        text = plan.summary()
        assert "octree" in text
        assert "ms per task" in text

    def test_uses_schedulable_classes_only(self, app):
        oneplus = get_platform("oneplus11")
        plan = BetterTogether(
            oneplus, repetitions=3, k=6, eval_tasks=8
        ).run(app)
        # OnePlus little cores are not pinnable -> never scheduled.
        assert "little" not in plan.schedule.pu_classes_used

    def test_jetson_two_class_platform(self, jetson, app):
        plan = BetterTogether(
            jetson, repetitions=3, k=6, eval_tasks=8
        ).run(app)
        used = set(plan.schedule.pu_classes_used)
        assert used <= {BIG, GPU}


class TestExecutionGateValidation:
    """No schedule reaches execution without passing validate_schedule."""

    def make_candidate(self, assignments):
        from repro.core.optimizer import ScheduleCandidate

        return ScheduleCandidate(
            rank=0, schedule=Schedule.from_assignments(assignments),
            predicted_latency_s=1.0, gapness_s=0.0,
        )

    def test_autotuner_rejects_wrong_stage_count(self, pixel, app):
        from repro.errors import ScheduleValidationError

        tuner = Autotuner(app, pixel, eval_tasks=4)
        with pytest.raises(ScheduleValidationError) as excinfo:
            tuner.measure_batch([self.make_candidate([BIG, GPU])])
        assert excinfo.value.constraint == "C1"

    def test_autotuner_rejects_foreign_pu(self, pixel, app):
        from repro.errors import ScheduleValidationError

        tuner = Autotuner(app, pixel, eval_tasks=4)
        assignments = ["npu-imaginary"] * app.num_stages
        with pytest.raises(ScheduleValidationError) as excinfo:
            tuner.measure_batch([self.make_candidate(assignments)])
        assert excinfo.value.constraint == "availability"

    def test_deployment_plan_validates_before_execute(self, jetson, app):
        from dataclasses import replace

        from repro.errors import ScheduleValidationError

        framework = BetterTogether(jetson, repetitions=2, k=3,
                                   eval_tasks=4)
        plan = framework.run(app)
        sabotaged = replace(
            plan.autotune.entries[0],
            candidate=self.make_candidate(
                ["npu-imaginary"] * app.num_stages
            ),
        )
        plan.autotune.entries[0] = sabotaged
        if plan.autotune.measured_best is not sabotaged:
            pytest.skip("sabotaged entry is not the measured best")
        with pytest.raises(ScheduleValidationError):
            plan.execute(n_tasks=2)

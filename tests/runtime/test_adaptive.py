"""Tests for the adaptive (PU-dropout fallback) deployment controller."""

import pytest

from repro.apps import build_octree_application
from repro.core import AdaptivePipeline
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.errors import PipelineError, SchedulingError
from repro.soc import get_platform


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


@pytest.fixture(scope="module")
def jetson_candidates(app):
    platform = get_platform("jetson_orin_nano")
    table = BTProfiler(platform, repetitions=3).profile(app)
    return BTOptimizer(
        app, table.restricted(platform.schedulable_classes()), k=6
    ).optimize().candidates


def make_pipeline(app, candidates, platform_name="jetson_orin_nano",
                  **kwargs):
    kwargs.setdefault("eval_tasks", 8)
    kwargs.setdefault("window_tasks", 10)
    return AdaptivePipeline(
        application=app,
        platform=get_platform(platform_name),
        candidates=candidates,
        **kwargs,
    )


class TestSteadyState:
    def test_stable_conditions_never_retune(self, app, jetson_candidates):
        pipeline = make_pipeline(app, jetson_candidates)
        records = [pipeline.run_window() for _ in range(4)]
        assert not any(record.fallback for record in records)
        assert len({r.schedule.assignments for r in records}) == 1

    def test_history_accumulates(self, app, jetson_candidates):
        pipeline = make_pipeline(app, jetson_candidates)
        [pipeline.run_window() for _ in range(3)]
        assert [r.window_index for r in pipeline.history] == [0, 1, 2]


class TestCandidateExhaustion:
    def test_exhaustion_fails_explicitly(self, app, jetson_candidates):
        """Failing every PU class must error out, never silently
        dispatch onto dead hardware."""
        pipeline = make_pipeline(app, jetson_candidates)
        pipeline.run_window()
        classes = sorted({
            pu_class
            for candidate in jetson_candidates
            for pu_class in candidate.schedule.pu_classes_used
        })
        with pytest.raises(SchedulingError,
                           match="full re-run .profiling included."):
            for pu_class in classes:
                pipeline.mark_pu_failed(pu_class)
        # Every cached candidate now touches a failed PU - including
        # the deployed schedule.
        assert (set(pipeline.schedule.pu_classes_used)
                & pipeline.failed_pus)
        with pytest.raises(SchedulingError, match="failed PUs"):
            pipeline.run_window()

    def test_surviving_candidate_keeps_streaming(
        self, app, jetson_candidates
    ):
        """Losing one class falls back instead of failing, as long as
        some cached candidate avoids it."""
        if not any(
            "gpu" not in c.schedule.pu_classes_used
            for c in jetson_candidates
        ):
            pytest.skip("no CPU-only candidate cached")
        pipeline = make_pipeline(app, jetson_candidates)
        pipeline.run_window()
        pipeline.mark_pu_failed("gpu")
        record = pipeline.run_window()
        assert "gpu" not in record.schedule.pu_classes_used

    def test_mark_failed_is_idempotent(self, app, jetson_candidates):
        pipeline = make_pipeline(app, jetson_candidates)
        if not any(
            "gpu" not in c.schedule.pu_classes_used
            for c in jetson_candidates
        ):
            pytest.skip("no CPU-only candidate cached")
        pipeline.mark_pu_failed("gpu")
        assert pipeline.mark_pu_failed("gpu") is False


class TestValidation:
    def test_needs_candidates(self, app):
        with pytest.raises(SchedulingError):
            AdaptivePipeline(
                application=app,
                platform=get_platform("jetson_orin_nano"),
                candidates=[],
            )

    def test_rejects_platform_without_usable_candidates(
        self, app, jetson_candidates
    ):
        gpu_using = [
            c for c in jetson_candidates
            if "gpu" in c.schedule.pu_classes_used
        ]
        assert gpu_using  # precondition
        # The CPU-only Pi cannot host any GPU-using candidate.
        with pytest.raises(SchedulingError):
            make_pipeline(app, gpu_using, platform_name="raspberry_pi5")

    def test_rejects_tiny_window(self, app, jetson_candidates):
        with pytest.raises(PipelineError):
            make_pipeline(app, jetson_candidates, window_tasks=1)

"""Cross-module integration tests: the whole system, small scale.

These exercise the full Fig. 2 flow - profile, optimize, autotune,
deploy - for every (application, platform) combination, plus the
functional/performance back-end agreement that makes the framework's
measurements trustworthy.
"""

import numpy as np
import pytest

from repro.apps import (
    build_alexnet_dense,
    build_alexnet_sparse,
    build_octree_application,
)
from repro.baselines import measure_baselines
from repro.core import BetterTogether
from repro.runtime import SimulatedPipelineExecutor, ThreadedPipelineExecutor
from repro.soc import all_platforms, estimate_energy, get_platform

APPS = {
    "alexnet-dense": lambda: build_alexnet_dense(),
    "alexnet-sparse": lambda: build_alexnet_sparse(batch=8),
    "octree": lambda: build_octree_application(n_points=10_000),
}


@pytest.fixture(scope="module")
def small_framework_kwargs():
    return dict(repetitions=3, k=6, eval_tasks=8)


class TestFullFlowGrid:
    @pytest.mark.parametrize("app_name", list(APPS))
    @pytest.mark.parametrize(
        "platform_name",
        ["pixel7a", "oneplus11", "jetson_orin_nano",
         "jetson_orin_nano_lp"],
    )
    def test_plan_never_loses_to_baselines(
        self, app_name, platform_name, small_framework_kwargs
    ):
        platform = get_platform(platform_name)
        application = APPS[app_name]()
        plan = BetterTogether(platform, **small_framework_kwargs).run(
            application
        )
        baseline = measure_baselines(application, platform, n_tasks=8)
        # Autotuned deployment is at worst a homogeneous schedule.
        assert plan.measured_latency_s <= baseline.best_latency_s * 1.10

    def test_cpu_only_platform_end_to_end(self, small_framework_kwargs):
        """The Raspberry Pi 5 has one schedulable class: the flow must
        degrade gracefully to the single homogeneous schedule."""
        platform = get_platform("raspberry_pi5")
        application = build_octree_application(n_points=10_000)
        plan = BetterTogether(platform, **small_framework_kwargs).run(
            application
        )
        assert plan.schedule.pu_classes_used == ("big",)
        assert len(plan.optimization.candidates) == 1


class TestBackendAgreement:
    def test_des_and_threads_execute_identical_stage_sets(self):
        """Both back-ends accept the same schedule objects and cover
        every stage exactly once per task."""
        platform = get_platform("pixel7a")
        application = build_octree_application(n_points=2_000)
        plan = BetterTogether(platform, repetitions=2, k=4,
                              eval_tasks=6).run(application)
        chunks = plan.schedule.chunks()

        des = SimulatedPipelineExecutor(application, chunks, platform)
        des_result = des.run(4, record_trace=True)
        assert len(des_result.spans) == len(chunks) * 4

        threaded = ThreadedPipelineExecutor(application, chunks)
        thread_result = threaded.run(4, validate=True)
        total_stage_runs = sum(thread_result.chunk_stage_counts.values())
        assert total_stage_runs == application.num_stages * 4

    def test_threaded_output_identical_for_deployed_vs_reference(self):
        platform = get_platform("oneplus11")
        application = build_alexnet_dense()
        plan = BetterTogether(platform, repetitions=2, k=4,
                              eval_tasks=6).run(application)
        outputs = {}
        for label, chunks in (
            ("deployed", plan.schedule.chunks()),
            ("reference", [type(plan.schedule.chunks()[0])(
                0, application.num_stages, "big")]),
        ):
            logits = []
            ThreadedPipelineExecutor(application, chunks).run(
                2,
                on_complete=lambda task, i, acc=logits: acc.append(
                    np.asarray(task["logits"]).copy()),
            )
            outputs[label] = logits
        for a, b in zip(outputs["deployed"], outputs["reference"]):
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5)


class TestEnergyIntegration:
    def test_lp_mode_uses_less_energy_per_task(self):
        """The whole point of the 7 W mode: lower energy per task even
        though latency rises."""
        application = build_octree_application(n_points=10_000)
        reports = {}
        for name in ("jetson_orin_nano", "jetson_orin_nano_lp"):
            platform = get_platform(name)
            plan = BetterTogether(platform, repetitions=2, k=4,
                                  eval_tasks=6).run(application)
            result = plan.execute(n_tasks=10)
            reports[name] = (
                estimate_energy(result, platform),
                result.steady_interval_s,
            )
        normal_energy, normal_latency = reports["jetson_orin_nano"]
        lp_energy, lp_latency = reports["jetson_orin_nano_lp"]
        assert lp_energy.per_task_j < normal_energy.per_task_j
        assert lp_latency > normal_latency


class TestDeterminismAcrossRuns:
    def test_full_flow_reproducible(self, small_framework_kwargs):
        platform_a = get_platform("pixel7a")
        platform_b = get_platform("pixel7a")
        application = build_octree_application(n_points=10_000)
        plan_a = BetterTogether(platform_a, **small_framework_kwargs).run(
            application
        )
        plan_b = BetterTogether(platform_b, **small_framework_kwargs).run(
            application
        )
        assert plan_a.schedule.assignments == plan_b.schedule.assignments
        assert plan_a.measured_latency_s == plan_b.measured_latency_s

    def test_different_seed_changes_measurements_not_structure(
        self, small_framework_kwargs
    ):
        application = build_octree_application(n_points=10_000)
        plan_a = BetterTogether(
            get_platform("pixel7a", seed=1), **small_framework_kwargs
        ).run(application)
        plan_b = BetterTogether(
            get_platform("pixel7a", seed=2), **small_framework_kwargs
        ).run(application)
        assert plan_a.measured_latency_s != plan_b.measured_latency_s
        # The underlying hardware model is identical, so the deployed
        # schedules should usually agree; at minimum both are valid.
        assert plan_a.schedule.is_contiguous()
        assert plan_b.schedule.is_contiguous()


class TestPaperScaleSanity:
    def test_all_platforms_register_power_and_affinity(self):
        for platform in all_platforms():
            assert platform.schedulable_classes()
            assert sum(c.cores for c in platform.clusters.values()) >= 4

"""Tests for the synthetic pipeline generator."""

import numpy as np
import pytest

from repro.apps import build_synthetic_application
from repro.core import BetterTogether, Chunk
from repro.core.profiler import BTProfiler
from repro.errors import KernelError
from repro.eval import speedup_bounds
from repro.runtime import ThreadedPipelineExecutor
from repro.soc import get_platform


class TestGeneration:
    def test_deterministic(self):
        a = build_synthetic_application(seed=1, stage_count=5)
        b = build_synthetic_application(seed=1, stage_count=5)
        assert a.stage_names == b.stage_names
        for sa, sb in zip(a.stages, b.stages):
            assert sa.work.flops == sb.work.flops
            assert sa.work.divergence == sb.work.divergence

    def test_seed_changes_pipeline(self):
        a = build_synthetic_application(seed=1, stage_count=5)
        b = build_synthetic_application(seed=2, stage_count=5)
        assert any(
            sa.work.flops != sb.work.flops
            for sa, sb in zip(a.stages, b.stages)
        )

    def test_stage_count_respected(self):
        for n in (1, 4, 12):
            app = build_synthetic_application(seed=0, stage_count=n)
            assert app.num_stages == n

    def test_validation(self):
        with pytest.raises(KernelError):
            build_synthetic_application(seed=0, stage_count=0)
        with pytest.raises(KernelError):
            build_synthetic_application(seed=0, heterogeneity=1.5)

    def test_zero_heterogeneity_collapses_structure(self):
        app = build_synthetic_application(seed=3, stage_count=6,
                                          heterogeneity=0.0)
        cpu_effs = {s.work.cpu_efficiency for s in app.stages}
        gpu_effs = {s.work.gpu_efficiency for s in app.stages}
        assert len(cpu_effs) == 1
        assert len(gpu_effs) == 1


class TestHeterogeneityKnob:
    def test_more_heterogeneity_more_exploitable_speedup(self):
        """The generator's whole purpose: the speedup bound available to
        the scheduler should grow with the heterogeneity knob (averaged
        over seeds to beat sampling noise)."""
        platform = get_platform("pixel7a")
        profiler = BTProfiler(platform, repetitions=2)

        def mean_bound(heterogeneity):
            bounds = []
            for seed in range(6):
                app = build_synthetic_application(
                    seed=seed, stage_count=8, heterogeneity=heterogeneity
                )
                table = profiler.profile(app).restricted(
                    platform.schedulable_classes()
                )
                bounds.append(speedup_bounds(app, table).max_speedup)
            return sum(bounds) / len(bounds)

        assert mean_bound(1.0) > mean_bound(0.0)


class TestExecution:
    def test_functional_kernels_run_and_are_order_sensitive(self):
        app = build_synthetic_application(seed=4, stage_count=4)
        outputs = []

        def capture(task, index):
            outputs.append(np.asarray(task["payload"]).copy())

        ThreadedPipelineExecutor(
            app, [Chunk(0, 2, "big"), Chunk(2, 4, "gpu")]
        ).run(2, on_complete=capture)
        assert len(outputs) == 2
        assert not np.array_equal(outputs[0], outputs[1])

    def test_full_flow_on_synthetic(self):
        platform = get_platform("jetson_orin_nano")
        app = build_synthetic_application(seed=5, stage_count=6)
        plan = BetterTogether(platform, repetitions=2, k=4,
                              eval_tasks=6).run(app)
        assert plan.schedule.num_stages == 6

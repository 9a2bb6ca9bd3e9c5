"""Tests for pipeline memory accounting."""

import pytest

from repro.apps import build_alexnet_sparse, build_octree_application
from repro.core import Application, Stage
from repro.errors import PipelineError
from repro.runtime import estimate_pipeline_memory
from repro.soc import WorkProfile


class TestEstimate:
    def test_octree_footprint_scales_with_points(self):
        small = estimate_pipeline_memory(
            build_octree_application(n_points=1_000), depth=2
        )
        large = estimate_pipeline_memory(
            build_octree_application(n_points=4_000), depth=2
        )
        assert large.per_task_bytes > 3 * small.per_task_bytes

    def test_total_is_depth_times_per_task(self):
        app = build_octree_application(n_points=2_000)
        one = estimate_pipeline_memory(app, depth=1)
        four = estimate_pipeline_memory(app, depth=4)
        assert four.total_bytes == 4 * one.total_bytes
        assert one.total_mib == pytest.approx(
            one.total_bytes / 1024 / 1024
        )

    def test_sparse_batch_dominated_by_activations(self):
        report = estimate_pipeline_memory(
            build_alexnet_sparse(batch=8), depth=2
        )
        assert report.per_task_bytes > 0
        name = max(report.buffer_bytes, key=report.buffer_bytes.get)
        assert name.startswith("act")

    def test_requires_task_factory(self):
        app = Application(
            "bare",
            [Stage.model_only("s", WorkProfile(flops=1, bytes_moved=1))],
        )
        with pytest.raises(PipelineError):
            estimate_pipeline_memory(app, depth=1)

    def test_rejects_bad_depth(self):
        app = build_octree_application(n_points=1_000)
        with pytest.raises(PipelineError):
            estimate_pipeline_memory(app, depth=0)

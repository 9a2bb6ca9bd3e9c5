"""Tests for the stereo-depth extension application and its kernels."""

import numpy as np
import pytest

from repro.apps import build_stereo_application, synthetic_stereo_pair
from repro.apps.stereo_app import MAX_DISPARITY
from repro.core import BetterTogether, Chunk
from repro.errors import KernelError
from repro.kernels.stereo import (
    _popcount32,
    aggregate_cpu,
    aggregate_gpu,
    census_cpu,
    census_gpu,
    cost_volume_cpu,
    median3x3_cpu,
    median3x3_gpu,
    rectify_cpu,
    wta_cpu,
    wta_gpu,
)
from repro.runtime import ThreadedPipelineExecutor
from repro.soc import get_platform

H, W, D = 48, 96, 16


@pytest.fixture(scope="module")
def app():
    return build_stereo_application(h=H, w=W)


def run_and_capture(app, chunks, n=1):
    captured = []

    def cap(task, index):
        captured.append({
            "cleaned": np.asarray(task["cleaned"]).copy(),
            "truth": np.asarray(task["truth"]).copy(),
        })

    ThreadedPipelineExecutor(app, chunks).run(
        n, on_complete=cap, validate=True
    )
    return captured


class TestSyntheticPair:
    def test_deterministic(self):
        a = synthetic_stereo_pair(1, H, W, D)
        b = synthetic_stereo_pair(1, H, W, D)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_truth_has_two_layers(self):
        _, _, truth = synthetic_stereo_pair(0, H, W, D)
        assert set(np.unique(truth)) == {D // 4, D // 2}

    def test_correspondence_holds(self):
        """left[r, c] equals right[r, c - d] away from the box edge."""
        left, right, truth = synthetic_stereo_pair(2, H, W, D)
        r, c = 5, W - 10  # background region
        d = int(truth[r, c])
        assert left[r, c] == pytest.approx(right[r, c - d])


class TestKernels:
    def test_popcount(self):
        values = np.array([0, 1, 0xFF, 0xFFFFFFFF], dtype=np.uint32)
        np.testing.assert_array_equal(
            _popcount32(values), [0, 1, 8, 32]
        )

    def test_census_cpu_gpu_agree(self):
        left, right, _ = synthetic_stereo_pair(3, H, W, D)
        outs = []
        for fn in (census_cpu, census_gpu):
            lo = np.zeros((H, W), dtype=np.uint32)
            ro = np.zeros((H, W), dtype=np.uint32)
            fn(left, right, lo, ro)
            outs.append((lo, ro))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        np.testing.assert_array_equal(outs[0][1], outs[1][1])

    def test_aggregate_cpu_gpu_agree(self):
        rng = np.random.default_rng(4)
        cost = rng.integers(0, 24, size=(D, H, W)).astype(np.uint8)
        a = np.zeros((D, H, W), dtype=np.float32)
        b = np.zeros((D, H, W), dtype=np.float32)
        aggregate_cpu(cost, a)
        aggregate_gpu(cost, b)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_aggregate_preserves_mean(self):
        cost = np.full((2, H, W), 7, dtype=np.uint8)
        out = np.zeros((2, H, W), dtype=np.float32)
        aggregate_cpu(cost, out)
        np.testing.assert_allclose(out, 7.0, rtol=1e-5)

    def test_wta_cpu_gpu_agree(self):
        rng = np.random.default_rng(5)
        aggregated = rng.random((D, H, W)).astype(np.float32)
        a = np.zeros((H, W), dtype=np.int32)
        b = np.zeros((H, W), dtype=np.int32)
        wta_cpu(aggregated, a)
        wta_gpu(aggregated, b)
        np.testing.assert_array_equal(a, b)

    def test_wta_picks_minimum(self):
        aggregated = np.ones((4, 2, 2), dtype=np.float32)
        aggregated[2, 0, 0] = 0.0
        disparity = np.zeros((2, 2), dtype=np.int32)
        wta_cpu(aggregated, disparity)
        assert disparity[0, 0] == 2

    def test_median_cpu_gpu_agree(self):
        rng = np.random.default_rng(6)
        disparity = rng.integers(0, D, size=(H, W)).astype(np.int32)
        a = np.zeros((H, W), dtype=np.int32)
        b = np.zeros((H, W), dtype=np.int32)
        median3x3_cpu(disparity, a)
        median3x3_gpu(disparity, b)
        np.testing.assert_array_equal(a, b)

    def test_median_removes_speckle(self):
        disparity = np.full((9, 9), 4, dtype=np.int32)
        disparity[4, 4] = 15  # single outlier
        cleaned = np.zeros_like(disparity)
        median3x3_cpu(disparity, cleaned)
        assert cleaned[4, 4] == 4

    def test_rectify_identity_when_no_shear(self):
        left, right, _ = synthetic_stereo_pair(7, H, W, D)
        lo = np.zeros_like(left)
        ro = np.zeros_like(right)
        rectify_cpu(left, right, lo, ro, shear=0.0)
        np.testing.assert_allclose(lo, left, rtol=1e-6)

    def test_cost_volume_zero_at_truth(self):
        """At the true disparity the census codes match (cost ~ 0) for
        background pixels away from edges."""
        left, right, truth = synthetic_stereo_pair(8, H, W, D)
        lc = np.zeros((H, W), dtype=np.uint32)
        rc = np.zeros((H, W), dtype=np.uint32)
        census_cpu(left, right, lc, rc)
        cost = np.zeros((D, H, W), dtype=np.uint8)
        cost_volume_cpu(lc, rc, cost, D)
        r, c = 5, W - 10
        d = int(truth[r, c])
        assert cost[d, r, c] <= cost[:, r, c].min() + 2

    def test_shape_validation(self):
        with pytest.raises(KernelError):
            wta_cpu(np.zeros((4, 4, 4), dtype=np.float32),
                    np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(KernelError):
            cost_volume_cpu(
                np.zeros((4, 4), dtype=np.uint32),
                np.zeros((4, 4), dtype=np.uint32),
                np.zeros((2, 3, 4), dtype=np.uint8), 4,
            )


class TestApplication:
    def test_six_stages(self, app):
        assert app.num_stages == 6

    def test_recovers_ground_truth(self, app):
        captured = run_and_capture(app, [Chunk(0, 6, "big")])
        truth = captured[0]["truth"]
        cleaned = captured[0]["cleaned"]
        valid = np.zeros_like(truth, dtype=bool)
        valid[:, MAX_DISPARITY:] = True
        accuracy = float(
            (np.abs(cleaned - truth) <= 1)[valid].mean()
        )
        assert accuracy > 0.8

    def test_schedule_invariance(self, app):
        a = run_and_capture(app, [Chunk(0, 6, "big")])
        b = run_and_capture(
            app, [Chunk(0, 2, "little"), Chunk(2, 4, "gpu"),
                  Chunk(4, 6, "medium")]
        )
        np.testing.assert_array_equal(a[0]["cleaned"], b[0]["cleaned"])

    def test_framework_end_to_end(self, app):
        platform = get_platform("pixel7a")
        plan = BetterTogether(platform, repetitions=3, k=6,
                              eval_tasks=8).run(app)
        assert plan.schedule.num_stages == 6
        assert plan.measured_latency_s > 0

    def test_rejects_tiny_frames(self):
        with pytest.raises(KernelError):
            build_stereo_application(h=8, w=16)

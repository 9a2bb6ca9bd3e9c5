"""Tests for Platform and the four calibrated device definitions."""

import pytest

from repro.errors import PlatformError
from repro.soc import (
    PLATFORM_NAMES,
    WorkProfile,
    all_platforms,
    get_platform,
)
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def oneplus():
    return get_platform("oneplus11")


@pytest.fixture(scope="module")
def jetson():
    return get_platform("jetson_orin_nano")


def dense_work():
    return WorkProfile(
        flops=200e6, bytes_moved=5e6, parallelism=1e6,
        cpu_efficiency=0.2, gpu_efficiency=0.5,
    )


def irregular_work():
    return WorkProfile(
        flops=5e6, bytes_moved=8e6, parallelism=5e4,
        divergence=0.8, irregularity=0.9,
    )


class TestRegistry:
    def test_four_platforms(self):
        assert len(PLATFORM_NAMES) == 4
        assert len(all_platforms()) == 4

    def test_unknown_platform(self):
        with pytest.raises(PlatformError):
            get_platform("iphone")

    def test_platforms_are_freshly_built(self):
        assert get_platform("pixel7a") is not get_platform("pixel7a")


class TestTopology:
    def test_pixel_has_three_cpu_tiers_and_gpu(self, pixel):
        assert set(pixel.pu_classes()) == {BIG, MEDIUM, LITTLE, GPU}
        assert set(pixel.schedulable_classes()) == {BIG, MEDIUM, LITTLE, GPU}

    def test_oneplus_little_not_schedulable(self, oneplus):
        assert LITTLE in oneplus.pu_classes()
        assert LITTLE not in oneplus.schedulable_classes()
        assert set(oneplus.schedulable_classes()) == {BIG, MEDIUM, GPU}

    def test_oneplus_pinnable_core_count(self, oneplus):
        clusters = oneplus.clusters
        assert sum(c.cores for c in clusters.values()) == 8
        assert sum(clusters[c].cores for c in oneplus.schedulable_classes()
                   if c != GPU) == 5

    def test_jetson_two_classes(self, jetson):
        assert set(jetson.pu_classes()) == {BIG, GPU}

    def test_unknown_pu_class_rejected(self, jetson):
        with pytest.raises(PlatformError):
            jetson.pu(MEDIUM)


class TestGroundTruthTiming:
    def test_isolated_time_positive(self, pixel):
        for pu_class in pixel.pu_classes():
            assert pixel.isolated_time(dense_work(), pu_class) > 0

    def test_true_time_isolated_matches(self, pixel):
        t_iso = pixel.isolated_time(dense_work(), BIG)
        t_true = pixel.true_time(dense_work(), BIG, co_load=0.0)
        assert t_true == pytest.approx(t_iso)

    def test_pixel_cpu_slows_under_load(self, pixel):
        t_iso = pixel.true_time(dense_work(), BIG, co_load=0.0)
        t_loaded = pixel.true_time(
            dense_work(), BIG, co_load=1.0, other_demand_gbps=25.0
        )
        assert t_loaded > t_iso

    def test_pixel_gpu_boosts_under_load(self, pixel):
        compute_bound = WorkProfile(
            flops=500e6, bytes_moved=1e6, parallelism=1e6,
            gpu_efficiency=0.5,
        )
        t_iso = pixel.true_time(compute_bound, GPU, co_load=0.0)
        t_loaded = pixel.true_time(compute_bound, GPU, co_load=1.0)
        assert t_loaded < t_iso

    def test_dense_work_prefers_gpu_on_all_platforms(self):
        for platform in all_platforms():
            cpu_t = platform.isolated_time(dense_work(), BIG)
            gpu_t = platform.isolated_time(dense_work(), GPU)
            assert gpu_t < cpu_t, platform.name

    def test_irregular_work_prefers_big_cpu_on_mobile(self, pixel, oneplus):
        for platform in (pixel, oneplus):
            cpu_t = platform.isolated_time(irregular_work(), BIG)
            gpu_t = platform.isolated_time(irregular_work(), GPU)
            assert cpu_t < gpu_t, platform.name

    def test_overhead_not_scaled_by_interference(self, pixel):
        tiny = WorkProfile(flops=1.0, bytes_moved=1.0, parallelism=1.0)
        t_iso = pixel.true_time(tiny, GPU, co_load=0.0)
        t_loaded = pixel.true_time(tiny, GPU, co_load=1.0)
        # Launch-overhead dominated: interference barely matters.
        assert t_loaded == pytest.approx(t_iso, rel=0.05)


class TestMeasurement:
    def test_measurement_noise_deterministic(self, pixel):
        rng1 = pixel.measurement_rng("stage", BIG, 0)
        rng2 = pixel.measurement_rng("stage", BIG, 0)
        assert pixel.measure(1.0, rng1) == pixel.measure(1.0, rng2)

    def test_different_keys_differ(self, pixel):
        rng1 = pixel.measurement_rng("stage", BIG, 0)
        rng2 = pixel.measurement_rng("stage", BIG, 1)
        assert pixel.measure(1.0, rng1) != pixel.measure(1.0, rng2)

    def test_noise_is_small(self, pixel):
        rng = pixel.measurement_rng("noise-check")
        samples = [pixel.measure(1.0, rng) for _ in range(200)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(1.0, rel=0.02)

    def test_describe_mentions_gpu(self, pixel):
        assert "Mali" in pixel.describe()

"""Tests for measurement noise and affinity maps."""

import pytest

from repro.errors import PlatformError
from repro.soc import (
    AffinityEntry,
    AffinityMap,
    MeasurementNoise,
    mean_of_measurements,
)
from repro.soc.pu import BIG, GPU, LITTLE


class TestMeasurementNoise:
    def test_zero_sigma_is_exact(self):
        noise = MeasurementNoise(sigma=0.0, seed=1)
        assert noise.perturb(3.0, noise.rng("k")) == 3.0

    def test_same_key_same_stream(self):
        noise = MeasurementNoise(sigma=0.05, seed=1)
        a = [noise.perturb(1.0, noise.rng("k")) for _ in range(1)]
        b = [noise.perturb(1.0, noise.rng("k")) for _ in range(1)]
        assert a == b

    def test_keyed_generator_is_default_rng_of_the_stable_seed(self):
        import numpy as np

        from repro.soc.timer import _stable_seed

        noise = MeasurementNoise(sigma=0.05, seed=7)
        for key in (("k",), ("profile", "app", "stage", "big", "isolated")):
            want = np.random.default_rng(_stable_seed(7, *key))
            got = noise.rng(*key)
            assert got.bit_generator.state == want.bit_generator.state
            assert (got.lognormal(size=4) == want.lognormal(size=4)).all()

    def test_different_seed_different_stream(self):
        n1 = MeasurementNoise(sigma=0.05, seed=1)
        n2 = MeasurementNoise(sigma=0.05, seed=2)
        assert n1.perturb(1.0, n1.rng("k")) != n2.perturb(1.0, n2.rng("k"))

    def test_mean_one_property(self):
        noise = MeasurementNoise(sigma=0.1, seed=3)
        rng = noise.rng("stream")
        samples = [noise.perturb(2.0, rng) for _ in range(2000)]
        assert mean_of_measurements(samples) == pytest.approx(2.0, rel=0.02)

    def test_rejects_negative_sigma(self):
        with pytest.raises(PlatformError):
            MeasurementNoise(sigma=-0.1)

    def test_rejects_negative_duration(self):
        noise = MeasurementNoise(sigma=0.1)
        with pytest.raises(PlatformError):
            noise.perturb(-1.0, noise.rng("k"))

    def test_mean_of_zero_measurements_rejected(self):
        with pytest.raises(PlatformError):
            mean_of_measurements([])


class TestAffinityMap:
    def make_map(self, little_pinnable=True):
        return AffinityMap(
            {
                BIG: AffinityEntry(core_ids=(6, 7)),
                LITTLE: AffinityEntry(
                    core_ids=(0, 1, 2, 3), pinnable=little_pinnable
                ),
            }
        )

    def test_duplicate_core_ids_rejected(self):
        with pytest.raises(PlatformError):
            AffinityMap(
                {
                    BIG: AffinityEntry(core_ids=(0, 1)),
                    LITTLE: AffinityEntry(core_ids=(1, 2)),
                }
            )

    def test_schedulable_excludes_unpinnable(self):
        amap = self.make_map(little_pinnable=False)
        assert LITTLE not in amap.schedulable_classes()
        assert BIG in amap.schedulable_classes()
        assert GPU in amap.schedulable_classes()

    def test_no_gpu_map(self):
        amap = AffinityMap(
            {BIG: AffinityEntry(core_ids=(0,))}, has_gpu=False
        )
        assert GPU not in amap.schedulable_classes()

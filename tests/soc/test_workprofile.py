"""Tests for WorkProfile validation and algebra."""

import pytest

from repro.errors import KernelError
from repro.soc import WorkProfile


def profile(**overrides):
    base = dict(flops=1e6, bytes_moved=1e5, parallelism=1024.0)
    base.update(overrides)
    return WorkProfile(**base)


class TestValidation:
    def test_rejects_negative_flops(self):
        with pytest.raises(KernelError):
            profile(flops=-1.0)

    def test_rejects_parallelism_below_one(self):
        with pytest.raises(KernelError):
            profile(parallelism=0.5)

    @pytest.mark.parametrize(
        "field", ["parallel_fraction", "divergence", "irregularity"]
    )
    def test_rejects_out_of_range_fractions(self, field):
        with pytest.raises(KernelError):
            profile(**{field: 1.5})
        with pytest.raises(KernelError):
            profile(**{field: -0.1})

    def test_rejects_zero_efficiency(self):
        with pytest.raises(KernelError):
            profile(cpu_efficiency=0.0)

    def test_rejects_zero_launches(self):
        with pytest.raises(KernelError):
            profile(gpu_launches=0)

    def test_accepts_boundary_values(self):
        p = profile(divergence=1.0, irregularity=0.0, parallel_fraction=1.0)
        assert p.divergence == 1.0

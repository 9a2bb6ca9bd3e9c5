"""Unit tests for the shared kernel helpers."""

import pytest

from repro.kernels.base import (
    flops_nlogn,
    grid_stride_chunks,
    next_power_of_two,
)


class TestArithmeticHelpers:
    def test_next_power_of_two(self):
        assert next_power_of_two(1) == 1
        assert next_power_of_two(5) == 8
        assert next_power_of_two(16) == 16
        assert next_power_of_two(0) == 1

    def test_flops_nlogn(self):
        assert flops_nlogn(1) == 1.0
        assert flops_nlogn(8, per_element=2.0) == pytest.approx(48.0)


class TestGridStride:
    def test_covers_range(self):
        starts, stride = grid_stride_chunks(100_000)
        covered = set()
        for start in starts:
            covered.update(range(start, min(start + stride, 100_000)))
        assert len(covered) == 100_000

    def test_small_input_single_chunk(self):
        starts, stride = grid_stride_chunks(10)
        assert list(starts) == [0]
        assert stride >= 10

"""Tests for the dense and sparse neural-network kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernels import (
    ConvSpec,
    conv2d_relu_cpu,
    conv2d_relu_gpu,
    im2col,
    linear_cpu,
    linear_gpu,
    maxpool2x2_cpu,
    maxpool2x2_gpu,
    prune_to_csr,
    sparse_conv2d_relu_cpu,
    sparse_conv2d_relu_gpu,
)


def conv_reference(x, weights, bias, padding):
    """Direct (slow) convolution + ReLU oracle."""
    k_out, c_in, kh, kw = weights.shape
    c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    oh, ow = h + 2 * padding - kh + 1, w + 2 * padding - kw + 1
    out = np.zeros((k_out, oh, ow), dtype=np.float32)
    for k in range(k_out):
        for i in range(oh):
            for j in range(ow):
                patch = padded[:, i : i + kh, j : j + kw]
                out[k, i, j] = np.sum(patch * weights[k]) + bias[k]
    return np.maximum(out, 0.0)


def make_conv(seed, spec, h, w):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((spec.in_channels, h, w)).astype(np.float32)
    weights = rng.standard_normal(
        (spec.out_channels, spec.in_channels, spec.kernel_size,
         spec.kernel_size)
    ).astype(np.float32)
    bias = rng.standard_normal(spec.out_channels).astype(np.float32)
    oh, ow = spec.out_hw(h, w)
    out = np.zeros((spec.out_channels, oh, ow), dtype=np.float32)
    return x, weights, bias, out


class TestIm2col:
    def test_shape(self):
        x = np.arange(2 * 4 * 4, dtype=np.float32).reshape(2, 4, 4)
        cols = im2col(x, kernel_size=3, padding=1)
        assert cols.shape == (2 * 9, 16)

    def test_identity_kernel_recovers_input(self):
        x = np.arange(3 * 4 * 4, dtype=np.float32).reshape(3, 4, 4)
        cols = im2col(x, kernel_size=1, padding=0)
        np.testing.assert_array_equal(cols, x.reshape(3, 16))

    def test_rejects_bad_rank(self):
        with pytest.raises(KernelError):
            im2col(np.zeros((4, 4), dtype=np.float32), 3, 1)

    def test_rejects_oversized_kernel(self):
        with pytest.raises(KernelError):
            im2col(np.zeros((1, 2, 2), dtype=np.float32), 5, 0)


class TestConv:
    def test_cpu_matches_reference(self):
        spec = ConvSpec(in_channels=2, out_channels=3, kernel_size=3,
                        padding=1)
        x, weights, bias, out = make_conv(1, spec, 6, 6)
        conv2d_relu_cpu(x, weights, bias, out, spec)
        expected = conv_reference(x, weights, bias, 1)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_gpu_matches_cpu(self):
        spec = ConvSpec(in_channels=4, out_channels=20, kernel_size=5,
                        padding=2)
        x, weights, bias, out_cpu = make_conv(2, spec, 8, 8)
        out_gpu = np.zeros_like(out_cpu)
        conv2d_relu_cpu(x, weights, bias, out_cpu, spec)
        conv2d_relu_gpu(x, weights, bias, out_gpu, spec)
        np.testing.assert_allclose(out_cpu, out_gpu, rtol=1e-5)

    def test_relu_clamps_negatives(self):
        spec = ConvSpec(in_channels=1, out_channels=1, kernel_size=1,
                        padding=0)
        x = np.full((1, 2, 2), -1.0, dtype=np.float32)
        weights = np.ones((1, 1, 1, 1), dtype=np.float32)
        bias = np.zeros(1, dtype=np.float32)
        out = np.zeros((1, 2, 2), dtype=np.float32)
        conv2d_relu_cpu(x, weights, bias, out, spec)
        assert np.all(out == 0.0)

    def test_flops_formula(self):
        spec = ConvSpec(in_channels=3, out_channels=8, kernel_size=3,
                        padding=1)
        assert spec.flops(32, 32) == 2 * 3 * 8 * 9 * 32 * 32

    def test_shape_validation(self):
        spec = ConvSpec(in_channels=2, out_channels=3, kernel_size=3,
                        padding=1)
        x, weights, bias, out = make_conv(3, spec, 6, 6)
        with pytest.raises(KernelError):
            conv2d_relu_cpu(x[:1], weights, bias, out, spec)
        with pytest.raises(KernelError):
            conv2d_relu_cpu(x, weights[:, :1], bias, out, spec)
        with pytest.raises(KernelError):
            conv2d_relu_cpu(x, weights, bias[:1], out, spec)
        with pytest.raises(KernelError):
            conv2d_relu_cpu(x, weights, bias, out[:, :1], spec)


class TestMaxPool:
    def test_basic(self):
        x = np.array(
            [[[1, 2, 5, 6], [3, 4, 7, 8], [9, 10, 13, 14],
              [11, 12, 15, 16]]],
            dtype=np.float32,
        )
        out = np.zeros((1, 2, 2), dtype=np.float32)
        maxpool2x2_cpu(x, out)
        np.testing.assert_array_equal(out, [[[4, 8], [12, 16]]])

    def test_gpu_matches_cpu(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 16, 16)).astype(np.float32)
        a = np.zeros((8, 8, 8), dtype=np.float32)
        b = np.zeros((8, 8, 8), dtype=np.float32)
        maxpool2x2_cpu(x, a)
        maxpool2x2_gpu(x, b)
        np.testing.assert_array_equal(a, b)

    def test_odd_size_rejected(self):
        with pytest.raises(KernelError):
            maxpool2x2_cpu(
                np.zeros((1, 3, 4), dtype=np.float32),
                np.zeros((1, 1, 2), dtype=np.float32),
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=8))
    def test_property_pool_max_bound(self, c, half):
        rng = np.random.default_rng(c * 100 + half)
        x = rng.standard_normal((c, 2 * half, 2 * half)).astype(np.float32)
        out = np.zeros((c, half, half), dtype=np.float32)
        maxpool2x2_cpu(x, out)
        assert out.max() == pytest.approx(x.max())
        assert np.all(out >= x[:, ::2, ::2] - 1e-6)


class TestLinear:
    def test_cpu_matches_matmul(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 2, 2)).astype(np.float32)
        weights = rng.standard_normal((10, 16)).astype(np.float32)
        bias = rng.standard_normal(10).astype(np.float32)
        out = np.zeros(10, dtype=np.float32)
        linear_cpu(x, weights, bias, out)
        np.testing.assert_allclose(
            out, weights @ x.reshape(-1) + bias, rtol=1e-5
        )

    def test_gpu_matches_cpu(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 2)).astype(np.float32)
        weights = rng.standard_normal((10, 16)).astype(np.float32)
        bias = rng.standard_normal(10).astype(np.float32)
        a = np.zeros(10, dtype=np.float32)
        b = np.zeros(10, dtype=np.float32)
        linear_cpu(x, weights, bias, a)
        linear_gpu(x, weights, bias, b)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(KernelError):
            linear_cpu(
                np.zeros((2, 2, 2), dtype=np.float32),
                np.zeros((3, 7), dtype=np.float32),
                np.zeros(3, dtype=np.float32),
                np.zeros(3, dtype=np.float32),
            )


class TestPruneToCsr:
    def test_sparsity_achieved(self):
        rng = np.random.default_rng(7)
        weights = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)
        csr = prune_to_csr(weights, sparsity=0.9)
        assert csr.nnz == pytest.approx(0.1 * weights.size, abs=1.0)
        assert csr.density == pytest.approx(0.1, abs=0.01)

    def test_keeps_largest_magnitudes(self):
        weights = np.zeros((1, 1, 2, 2), dtype=np.float32)
        weights[0, 0] = [[0.1, -5.0], [0.2, 3.0]]
        csr = prune_to_csr(weights, sparsity=0.5)
        dense = csr.to_dense()
        assert dense[0, 1] == pytest.approx(-5.0)
        assert dense[0, 3] == pytest.approx(3.0)
        assert dense[0, 0] == 0.0

    def test_zero_sparsity_is_lossless(self):
        rng = np.random.default_rng(8)
        weights = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        csr = prune_to_csr(weights, sparsity=0.0)
        np.testing.assert_allclose(csr.to_dense(), weights.reshape(3, -1))

    def test_rejects_bad_sparsity(self):
        with pytest.raises(KernelError):
            prune_to_csr(np.zeros((1, 1, 1, 1), dtype=np.float32), 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        weights = rng.standard_normal((4, 4, 3, 3)).astype(np.float32)
        a = prune_to_csr(weights, sparsity=0.8)
        b = prune_to_csr(weights, sparsity=0.8)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.data, b.data)

    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 0.999])
    @pytest.mark.parametrize("seed", range(5))
    def test_selection_equals_the_stable_sort_on_ties(self, seed, sparsity):
        """The O(n) selection keeps exactly what a stable descending
        argsort keeps - checked where it could differ: magnitudes forced
        to tie (one decimal, both signs, zeros) across the threshold."""
        rng = np.random.default_rng(seed)
        weights = np.round(
            rng.standard_normal((6, 4, 3, 3)), 1).astype(np.float32)
        flat = weights.reshape(6, -1)
        keep = max(1, int(round(flat.size * (1.0 - sparsity))))
        order = np.argsort(-np.abs(flat).ravel(), kind="stable")[:keep]
        want = np.zeros(flat.size, dtype=bool)
        want[order] = True
        want = want.reshape(flat.shape)
        csr = prune_to_csr(weights, sparsity=sparsity)
        got = np.zeros_like(want)
        for row in range(6):
            got[row, csr.indices[csr.indptr[row]:csr.indptr[row + 1]]] = True
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(csr.data, flat[want])


class TestSparseConv:
    def make_case(self, seed, sparsity=0.8):
        spec = ConvSpec(in_channels=3, out_channels=6, kernel_size=3,
                        padding=1)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        weights = rng.standard_normal((6, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(6).astype(np.float32)
        csr = prune_to_csr(weights, sparsity=sparsity)
        out = np.zeros((6, 8, 8), dtype=np.float32)
        return spec, x, weights, bias, csr, out

    def test_matches_dense_conv_with_pruned_weights(self):
        spec, x, weights, bias, csr, out = self.make_case(10)
        sparse_conv2d_relu_cpu(x, csr, bias, out, spec)
        pruned_dense = csr.to_dense().reshape(weights.shape)
        expected = np.zeros_like(out)
        conv2d_relu_cpu(x, pruned_dense, bias, expected, spec)
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    def test_gpu_matches_cpu(self):
        spec, x, _, bias, csr, out_cpu = self.make_case(11)
        out_gpu = np.zeros_like(out_cpu)
        sparse_conv2d_relu_cpu(x, csr, bias, out_cpu, spec)
        sparse_conv2d_relu_gpu(x, csr, bias, out_gpu, spec)
        np.testing.assert_allclose(out_cpu, out_gpu, rtol=1e-5)

    def test_fully_pruned_rows_emit_bias(self):
        spec, x, _, bias, _, out = self.make_case(12)
        empty = prune_to_csr(
            np.zeros((6, 3, 3, 3), dtype=np.float32) + 1e-9, sparsity=0.99
        )
        bias = np.abs(bias)
        sparse_conv2d_relu_cpu(x, empty, bias, out, spec)
        # Rows with no nonzeros produce constant bias maps.
        for row in range(6):
            if empty.indptr[row] == empty.indptr[row + 1]:
                assert np.allclose(out[row], bias[row])

    def test_csr_shape_mismatch_rejected(self):
        spec, x, _, bias, _, out = self.make_case(13)
        bad = prune_to_csr(
            np.ones((5, 3, 3, 3), dtype=np.float32), sparsity=0.5
        )
        with pytest.raises(KernelError):
            sparse_conv2d_relu_cpu(x, bad, bias, out, spec)

"""Sparse (CSR) kernels for the AlexNet-sparse workload.

The paper prunes AlexNet's convolutions with Condensa and stores the
weights in Compressed Sparse Row format (section 4.1), turning the dense
GEMM into an irregular sparse-matrix x dense-matrix product.  We provide:

* :func:`prune_to_csr` - magnitude pruning of a dense weight tensor into a
  deterministic CSR matrix (the Condensa stand-in);
* CSR conv variants: the CPU one iterates rows with gathered columns (how
  an OpenMP SpMM is written), the GPU one assigns a "warp" of rows per
  launch tile - same numerics, device-style partitioning.

Sparse stages process a *batch* of images per task (128 in the paper)
because the per-image cost collapses after pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KernelError
from repro.kernels.nn import ConvSpec, im2col
from repro.soc.workprofile import WorkProfile


@dataclass(frozen=True)
class CsrMatrix:
    """A read-only CSR matrix (values, column indices, row pointers)."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __post_init__(self) -> None:
        rows, _ = self.shape
        if len(self.indptr) != rows + 1:
            raise KernelError(
                f"indptr length {len(self.indptr)} != rows+1 ({rows + 1})"
            )
        if len(self.data) != len(self.indices):
            raise KernelError("data and indices must align")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.data):
            raise KernelError("indptr must start at 0 and end at nnz")

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def density(self) -> float:
        rows, cols = self.shape
        total = rows * cols
        return self.nnz / total if total else 0.0

    def to_dense(self) -> np.ndarray:
        """Materialize the dense matrix (test/debug helper)."""
        rows, cols = self.shape
        dense = np.zeros((rows, cols), dtype=self.data.dtype)
        for row in range(rows):
            start, stop = self.indptr[row], self.indptr[row + 1]
            dense[row, self.indices[start:stop]] = self.data[start:stop]
        return dense


def pruned_nnz(size: int, sparsity: float) -> int:
    """Non-zeros :func:`prune_to_csr` leaves of ``size`` weights - a
    function of the shape alone, since ties are broken down to it."""
    if not 0.0 <= sparsity < 1.0:
        raise KernelError(f"sparsity must be in [0, 1), got {sparsity}")
    return max(1, int(round(size * (1.0 - sparsity))))


def prune_to_csr(weights: np.ndarray, sparsity: float) -> CsrMatrix:
    """Magnitude-prune a (K, C, R, S) weight tensor to CSR.

    Keeps the ``1 - sparsity`` largest-magnitude weights (global
    threshold, deterministic ties by index), then flattens each output
    channel to a CSR row over ``C*R*S`` columns - the layout the sparse
    conv kernels consume.
    """
    k = weights.shape[0]
    flat = weights.reshape(k, -1).astype(np.float32)
    keep = pruned_nnz(flat.size, sparsity)
    magnitudes = np.abs(flat).ravel()
    # O(n) selection of what a stable descending sort would keep: all
    # above the keep-th largest magnitude, then ties with it by index.
    cut = flat.size - keep
    threshold = np.partition(magnitudes, cut)[cut]
    mask = magnitudes > threshold
    ties = np.flatnonzero(magnitudes == threshold)
    mask[ties[:keep - np.count_nonzero(mask)]] = True
    mask = mask.reshape(flat.shape)

    data, indices, indptr = [], [], [0]
    for row in range(k):
        cols = np.nonzero(mask[row])[0]
        data.append(flat[row, cols])
        indices.append(cols)
        indptr.append(indptr[-1] + len(cols))
    return CsrMatrix(
        data=np.concatenate(data) if data else np.empty(0, np.float32),
        indices=(
            np.concatenate(indices).astype(np.int64)
            if indices else np.empty(0, np.int64)
        ),
        indptr=np.asarray(indptr, dtype=np.int64),
        shape=(k, flat.shape[1]),
    )


def _check_sparse_conv(x: np.ndarray, csr: CsrMatrix, bias: np.ndarray,
                       out: np.ndarray, spec: ConvSpec) -> tuple:
    if csr.shape != (spec.out_channels,
                     spec.in_channels * spec.kernel_size**2):
        raise KernelError(
            f"CSR shape {csr.shape} does not match conv spec {spec}"
        )
    oh, ow = spec.out_hw(x.shape[1], x.shape[2])
    if out.shape != (spec.out_channels, oh, ow):
        raise KernelError(
            f"output {out.shape} != {(spec.out_channels, oh, ow)}"
        )
    if bias.shape != (spec.out_channels,):
        raise KernelError("bias shape mismatch")
    return oh, ow


def sparse_conv2d_relu_cpu(x: np.ndarray, csr: CsrMatrix, bias: np.ndarray,
                           out: np.ndarray, spec: ConvSpec) -> None:
    """Host variant: row loop, gathered patch rows, fused ReLU."""
    oh, ow = _check_sparse_conv(x, csr, bias, out, spec)
    patches = im2col(x, spec.kernel_size, spec.padding)
    for row in range(spec.out_channels):
        start, stop = csr.indptr[row], csr.indptr[row + 1]
        if start == stop:
            acc = np.full(oh * ow, bias[row], dtype=np.float32)
        else:
            gathered = patches[csr.indices[start:stop]]
            acc = csr.data[start:stop] @ gathered + bias[row]
        np.maximum(acc, 0.0, out=acc)
        out[row] = acc.reshape(oh, ow)


#: Rows per simulated warp in the gpu variant.
GPU_ROW_TILE = 32


def sparse_conv2d_relu_gpu(x: np.ndarray, csr: CsrMatrix, bias: np.ndarray,
                           out: np.ndarray, spec: ConvSpec) -> None:
    """Device variant: warp-per-row tiles (CSR-vector SpMM style)."""
    oh, ow = _check_sparse_conv(x, csr, bias, out, spec)
    patches = im2col(x, spec.kernel_size, spec.padding)
    for row0 in range(0, spec.out_channels, GPU_ROW_TILE):
        for row in range(row0, min(row0 + GPU_ROW_TILE, spec.out_channels)):
            start, stop = csr.indptr[row], csr.indptr[row + 1]
            if start == stop:
                acc = np.full(oh * ow, bias[row], dtype=np.float32)
            else:
                gathered = patches[csr.indices[start:stop]]
                acc = csr.data[start:stop] @ gathered + bias[row]
            np.maximum(acc, 0.0, out=acc)
            out[row] = acc.reshape(oh, ow)


def sparse_conv_work_profile(spec: ConvSpec, h: int, w: int, nnz: int,
                             batch: int = 1) -> WorkProfile:
    """Pruned convolution: the irregular stage class.

    Flops shrink to ``2 * nnz * OH * OW`` but every access gathers through
    the column-index array: high irregularity and (on SIMT machines)
    divergence from the uneven row lengths.  CPUs tolerate this far better
    - the reason AlexNet-sparse is near CPU/GPU parity on the Pixel
    (Table 3) and the platform where isolated performance models go most
    wrong (Fig. 6).
    """
    oh, ow = spec.out_hw(h, w)
    io_bytes = 4.0 * (spec.in_channels * h * w + spec.out_channels * oh * ow)
    csr_bytes = nnz * (4.0 + 8.0)
    # Each nonzero's gathered patch row is oh*ow wide.
    gather_bytes = 4.0 * nnz * oh * ow * 0.1  # partial cache reuse
    return WorkProfile(
        flops=2.0 * nnz * oh * ow * batch,
        bytes_moved=(io_bytes * batch + csr_bytes + gather_bytes * batch),
        parallelism=float(spec.out_channels * oh * ow * batch / 4.0),
        parallel_fraction=1.0,
        divergence=0.35,
        irregularity=0.35,
        cpu_efficiency=0.5,
        gpu_efficiency=0.5,
        gpu_launches=1,
    )

"""Compute kernels (paper section 3.1).

Every pipeline stage ships a CPU variant (written like the paper's OpenMP
kernels) and a GPU variant (structured like the CUDA/Vulkan kernels:
grid-stride maps, multi-pass sorts, sweep-based scans, tiled GEMMs), plus
a work-profile builder consumed by the virtual SoC's cost model.
"""

from repro.kernels.base import BACKENDS, CPU, GPU
from repro.kernels.morton import (
    morton_encode,
    morton_encode_cpu,
    morton_encode_gpu,
    morton_work_profile,
)
from repro.kernels.nn import (
    ConvSpec,
    conv2d_relu_cpu,
    conv2d_relu_gpu,
    conv_work_profile,
    im2col,
    linear_cpu,
    linear_gpu,
    linear_work_profile,
    maxpool2x2_cpu,
    maxpool2x2_gpu,
    maxpool_work_profile,
)
from repro.kernels.octree import (
    Octree,
    allocate_octree,
    build_octree_cpu,
    build_octree_gpu,
    count_edges_cpu,
    count_edges_gpu,
    edge_count_work_profile,
    octree_build_work_profile,
)
from repro.kernels.radix_tree import (
    RadixTree,
    allocate_tree,
    build_radix_tree_cpu,
    build_radix_tree_gpu,
    build_radix_tree_reference,
    radix_tree_work_profile,
)
from repro.kernels.scan import (
    exclusive_scan_cpu,
    exclusive_scan_gpu,
    scan_work_profile,
)
from repro.kernels.sort import sort_codes_cpu, sort_codes_gpu, sort_work_profile
from repro.kernels.sparse import (
    CsrMatrix,
    prune_to_csr,
    pruned_nnz,
    sparse_conv2d_relu_cpu,
    sparse_conv2d_relu_gpu,
    sparse_conv_work_profile,
)
from repro.kernels.unique import unique_cpu, unique_gpu, unique_work_profile

__all__ = [
    "BACKENDS",
    "CPU",
    "ConvSpec",
    "CsrMatrix",
    "GPU",
    "Octree",
    "RadixTree",
    "allocate_octree",
    "allocate_tree",
    "build_octree_cpu",
    "build_octree_gpu",
    "build_radix_tree_cpu",
    "build_radix_tree_gpu",
    "build_radix_tree_reference",
    "conv2d_relu_cpu",
    "conv2d_relu_gpu",
    "conv_work_profile",
    "count_edges_cpu",
    "count_edges_gpu",
    "edge_count_work_profile",
    "exclusive_scan_cpu",
    "exclusive_scan_gpu",
    "im2col",
    "linear_cpu",
    "linear_gpu",
    "linear_work_profile",
    "maxpool2x2_cpu",
    "maxpool2x2_gpu",
    "maxpool_work_profile",
    "morton_encode",
    "morton_encode_cpu",
    "morton_encode_gpu",
    "morton_work_profile",
    "octree_build_work_profile",
    "prune_to_csr",
    "pruned_nnz",
    "radix_tree_work_profile",
    "scan_work_profile",
    "sort_codes_cpu",
    "sort_codes_gpu",
    "sort_work_profile",
    "sparse_conv2d_relu_cpu",
    "sparse_conv2d_relu_gpu",
    "sparse_conv_work_profile",
    "unique_cpu",
    "unique_gpu",
    "unique_work_profile",
]

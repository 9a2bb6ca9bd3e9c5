"""Common kernel machinery.

A *compute kernel* (paper section 3.1) is one backend implementation of a
stage.  Here each stage ships a ``*_cpu`` and a ``*_gpu`` function pair:

* the **cpu** variant is written the way the paper's OpenMP kernels are -
  straightforward (vectorized) loops over the data;
* the **gpu** variant mirrors how the CUDA/Vulkan shader is structured -
  grid-stride maps, multi-pass histogram sorts, up/down-sweep scans - so
  that the *algorithm* matches what actually runs on a device even though
  both produce bit-identical results on the host.

Both run on numpy arrays in a shared :class:`dict`-like task, the stand-in
for the paper's ``UsmBuffer`` zero-copy unified memory (section 3.1).

Each kernel module also exports a work-profile builder used by the virtual
SoC's cost model.
"""

from __future__ import annotations

import math
from typing import Tuple

#: Backend identifiers, matching the paper's terminology.
CPU = "cpu"
GPU = "gpu"
BACKENDS = (CPU, GPU)

#: Simulated GPU grid geometry for grid-stride loops (the numbers shape the
#: chunking of the gpu variants, not their results).
GPU_BLOCK = 256
GPU_GRID = 64


def grid_stride_chunks(n: int) -> Tuple[range, int]:
    """Chunk bounds for a simulated grid-stride loop over ``n`` items.

    Returns the range of chunk starts and the stride, mimicking
    ``for (i = idx; i < N; i += blockDim * gridDim)`` from the paper's
    Fig. 3 CUDA listing.
    """
    stride = GPU_BLOCK * GPU_GRID
    return range(0, max(n, 1), stride), stride


def next_power_of_two(n: int) -> int:
    """Smallest power of two >= n (>= 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def flops_nlogn(n: int, per_element: float = 1.0) -> float:
    """Work estimate for comparison-style n log n algorithms."""
    if n <= 1:
        return float(n)
    return per_element * n * math.log2(n)

"""Processing-unit descriptions for the virtual SoC.

Two PU families exist on the paper's platforms (section 2.1): CPU clusters
(big / medium / little, modelled as :class:`CpuCluster`) and integrated GPUs
(:class:`Gpu`).  These are *static* hardware descriptions; execution-time
math lives in :mod:`repro.soc.cost_model` and contention effects in
:mod:`repro.soc.interference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import PlatformError

# Canonical PU class names used throughout the framework.
BIG = "big"
MEDIUM = "medium"
LITTLE = "little"
GPU = "gpu"

CPU_CLASSES = (BIG, MEDIUM, LITTLE)
ALL_CLASSES = CPU_CLASSES + (GPU,)


@dataclass(frozen=True)
class CpuCluster:
    """A homogeneous cluster of CPU cores (one big.LITTLE tier).

    Attributes:
        pu_class: One of ``big``, ``medium``, ``little``.
        model: Marketing name, e.g. ``Cortex-X1``.
        cores: Number of cores in the cluster.
        freq_ghz: Sustained clock under load.
        flops_per_cycle: Per-core arithmetic throughput (NEON SIMD lanes x
            FMA); big cores have two 128-bit FMA pipes (16 flop/cycle),
            little in-order cores one (4-8).
        irregularity_tolerance: [0, 1] - how well the microarchitecture
            hides irregular access and branches (out-of-order window,
            prefetchers).  1 = unaffected.
        dispatch_overhead_s: Fixed per-stage software overhead (OpenMP fork
            / barrier, queue handoff).
        stream_bw_gbps: Peak DRAM bandwidth the cluster can draw by itself
            (bounded by the platform's total DRAM bandwidth).
        sustained_efficiency: Fraction of nominal peak the cluster sustains
            in steady state (thermal envelope, OS scheduling quality);
            passively-cooled phones sustain far less than a fan-cooled
            Jetson devkit.
        core_ids: OS core identifiers for affinity pinning.
        pinnable: Whether the OS allows pinning to this cluster (the
            OnePlus only exposes 5 of 8 cores; see section 5.1).
    """

    pu_class: str
    model: str
    cores: int
    freq_ghz: float
    flops_per_cycle: float
    irregularity_tolerance: float
    dispatch_overhead_s: float
    stream_bw_gbps: float
    core_ids: Tuple[int, ...]
    sustained_efficiency: float = 1.0
    pinnable: bool = True

    def __post_init__(self) -> None:
        if self.pu_class not in CPU_CLASSES:
            raise PlatformError(f"bad CPU class: {self.pu_class!r}")
        if self.cores < 1 or len(self.core_ids) != self.cores:
            raise PlatformError(
                f"cluster {self.model}: cores={self.cores} but "
                f"{len(self.core_ids)} core ids"
            )
        if not 0.0 <= self.irregularity_tolerance <= 1.0:
            raise PlatformError("irregularity_tolerance must be in [0, 1]")

    @property
    def peak_gflops(self) -> float:
        """Cluster-wide peak arithmetic throughput in GFLOP/s."""
        return self.cores * self.freq_ghz * self.flops_per_cycle

    @property
    def sustained_gflops(self) -> float:
        """Throughput actually sustainable in steady state."""
        return self.peak_gflops * self.sustained_efficiency


@dataclass(frozen=True)
class Gpu:
    """An integrated GPU (shares DRAM with the CPU clusters).

    Attributes:
        model: Marketing name, e.g. ``Mali-G710 MP7``.
        vendor: ``arm``, ``qualcomm`` or ``nvidia``.
        api: ``vulkan`` or ``cuda`` - determines launch overheads and which
            interference pathology the platform exhibits (section 5.3).
        compute_units: Shader cores / SMs.
        lanes_per_unit: SIMT lanes per unit (warp width x pipes).
        freq_ghz: Shader clock.
        flops_per_lane_cycle: Usually 2 (FMA).
        divergence_penalty: Multiplier strength for divergent control flow;
            effective throughput is divided by ``1 + penalty * divergence``.
        irregularity_penalty: Same idea for scattered memory access.
        launch_overhead_s: Per-kernel-launch host+driver cost (higher for
            Vulkan command-buffer submission than CUDA stream launch).
        min_parallelism: Threads needed to cover latency; below this the
            GPU is proportionally underutilized.
        stream_bw_gbps: Peak DRAM bandwidth the GPU can draw by itself.
        sustained_efficiency: Fraction of nominal peak sustained in steady
            state (thermal/power envelope).
    """

    model: str
    vendor: str
    api: str
    compute_units: int
    lanes_per_unit: int
    freq_ghz: float
    flops_per_lane_cycle: float
    divergence_penalty: float
    irregularity_penalty: float
    launch_overhead_s: float
    min_parallelism: float
    stream_bw_gbps: float
    sustained_efficiency: float = 1.0

    pu_class: str = GPU

    def __post_init__(self) -> None:
        if self.api not in ("vulkan", "cuda"):
            raise PlatformError(f"bad GPU api: {self.api!r}")
        if self.vendor not in ("arm", "qualcomm", "nvidia"):
            raise PlatformError(f"bad GPU vendor: {self.vendor!r}")
        if self.compute_units < 1 or self.lanes_per_unit < 1:
            raise PlatformError("GPU must have at least one unit and lane")

    @property
    def peak_gflops(self) -> float:
        """Device-wide peak arithmetic throughput in GFLOP/s."""
        return (
            self.compute_units
            * self.lanes_per_unit
            * self.freq_ghz
            * self.flops_per_lane_cycle
        )

    @property
    def sustained_gflops(self) -> float:
        """Throughput actually sustainable in steady state."""
        return self.peak_gflops * self.sustained_efficiency

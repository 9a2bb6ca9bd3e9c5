"""Analytical (roofline-style) cost model for kernel execution on a PU.

The model answers one question: *how long does one invocation of a kernel,
described by a* :class:`~repro.soc.workprofile.WorkProfile`, *take on a given
PU in isolation?*  It is deliberately simple - a max(compute, memory)
roofline with structural penalties - because the paper's profiler is
black-box (section 3.2): what matters for reproducing BetterTogether is that
stage/PU affinities are heterogeneous in realistic ways (Fig. 1), not that
the absolute numbers match any specific silicon.

Interference is *not* modelled here; the
:class:`~repro.soc.interference.InterferenceModel` perturbs these isolated
times based on what the other PUs are doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.soc.pu import CpuCluster, Gpu
from repro.soc.workprofile import WorkProfile

# How strongly divergence hurts CPU pipelines (branch mispredictions) at
# zero irregularity-tolerance.  GPUs carry their own per-device penalty.
_CPU_DIVERGENCE_PENALTY = 0.5
# How much irregular access degrades achieved DRAM bandwidth.
_CPU_IRREGULAR_BW_LOSS = 0.55
_GPU_IRREGULAR_BW_LOSS = 0.75


@dataclass(frozen=True)
class CostBreakdown:
    """Execution-time decomposition for one kernel invocation on one PU.

    Attributes:
        compute_s: Arithmetic-limited time.
        memory_s: DRAM-traffic-limited time.
        overhead_s: Fixed dispatch / launch overhead.
        total_s: ``max(compute, memory) + overhead`` (compute and memory
            overlap on both CPU prefetchers and GPU latency hiding).
        memory_boundedness: Fraction of the overlapped portion attributable
            to memory - the interference model uses this to decide how much
            a bandwidth squeeze hurts.
        demand_bw_gbps: Average DRAM bandwidth drawn while executing, used
            by the interference model's contention accounting.
    """

    compute_s: float
    memory_s: float
    overhead_s: float

    @property
    def work_s(self) -> float:
        """The overlapped portion - all that interference scales."""
        return max(self.compute_s, self.memory_s)

    @property
    def total_s(self) -> float:
        return self.work_s + self.overhead_s

    @property
    def memory_boundedness(self) -> float:
        denominator = self.compute_s + self.memory_s
        if denominator <= 0.0:
            return 0.0
        return self.memory_s / denominator

    def demand_bw_gbps(self, bytes_moved: float) -> float:
        """Average DRAM bandwidth drawn while executing (GB/s)."""
        if self.total_s <= 0.0:
            return 0.0
        return bytes_moved / self.total_s / 1e9

    def stage_cost(self, bytes_moved: float) -> "StageCost":
        """The four numbers every consumer of this roofline reads."""
        return StageCost(
            overhead_s=self.overhead_s,
            work_s=self.work_s,
            memory_boundedness=self.memory_boundedness,
            demand_gbps=self.demand_bw_gbps(bytes_moved),
        )


class StageCost(NamedTuple):
    """One kernel on one PU in isolation, evaluated once: the fact the
    oracle's timing, the profiler's co-run conditions, the DES's rate
    machinery and a tenant's offered load are all derived from."""

    overhead_s: float
    work_s: float
    memory_boundedness: float
    demand_gbps: float


def cpu_cost(work: WorkProfile, cluster: CpuCluster) -> CostBreakdown:
    """Isolated execution time of ``work`` on a CPU cluster.

    Compute side: Amdahl over the cluster's cores, scaled by the kernel's
    CPU implementation efficiency, with penalties for irregular access and
    divergent branches that shrink as the microarchitecture's
    ``irregularity_tolerance`` grows (big OoO cores shrug these off, little
    in-order cores do not).

    Memory side: bytes over the cluster's achievable stream bandwidth,
    derated for irregular (non-prefetchable) access.
    """
    exposure = 1.0 - cluster.irregularity_tolerance
    irregular_factor = 1.0 + work.irregularity * exposure
    divergence_factor = (
        1.0 + _CPU_DIVERGENCE_PENALTY * work.divergence * exposure
    )
    core_rate_gflops = (
        cluster.freq_ghz
        * cluster.flops_per_cycle
        * cluster.sustained_efficiency
        * work.cpu_efficiency
        / (irregular_factor * divergence_factor)
    )
    usable_cores = min(float(cluster.cores), work.parallelism)
    serial_flops = work.flops * (1.0 - work.parallel_fraction)
    parallel_flops = work.flops * work.parallel_fraction
    compute_s = (
        serial_flops / (core_rate_gflops * 1e9)
        + parallel_flops / (core_rate_gflops * usable_cores * 1e9)
    )

    bw_gbps = cluster.stream_bw_gbps * (
        1.0 - _CPU_IRREGULAR_BW_LOSS * work.irregularity * exposure
    )
    memory_s = work.bytes_moved / (bw_gbps * 1e9)

    return CostBreakdown(
        compute_s=compute_s,
        memory_s=memory_s,
        overhead_s=cluster.dispatch_overhead_s,
    )


def gpu_cost(work: WorkProfile, gpu: Gpu) -> CostBreakdown:
    """Isolated execution time of ``work`` on an integrated GPU.

    Compute side: device peak scaled by the kernel's GPU implementation
    efficiency, derated by SIMT divergence and irregular access (per-device
    penalty strengths), and by occupancy when the kernel cannot fill the
    machine.  Any serial fraction runs on a single lane, which is why
    traversal-style stages are catastrophic on GPUs (section 4.1).

    Memory side: bytes over the GPU's stream bandwidth with a heavy derate
    for non-coalesced access.

    Overhead: one fixed cost per kernel launch (multi-pass algorithms pay
    it repeatedly - radix sort on mobile Vulkan being the canonical
    example behind Fig. 1's "GPU is bad at sorting").
    """
    divergence_factor = 1.0 + gpu.divergence_penalty * work.divergence
    irregular_factor = 1.0 + gpu.irregularity_penalty * work.irregularity
    occupancy = min(1.0, work.parallelism / gpu.min_parallelism)
    efficiency = work.effective_gpu_efficiency(gpu.api)
    device_rate_gflops = (
        gpu.sustained_gflops
        * efficiency
        * occupancy
        / (divergence_factor * irregular_factor)
    )
    lane_rate_gflops = (
        gpu.freq_ghz
        * gpu.flops_per_lane_cycle
        * gpu.sustained_efficiency
        * efficiency
        / (divergence_factor * irregular_factor)
    )
    serial_flops = work.flops * (1.0 - work.parallel_fraction)
    parallel_flops = work.flops * work.parallel_fraction
    compute_s = (
        serial_flops / (lane_rate_gflops * 1e9)
        + parallel_flops / (device_rate_gflops * 1e9)
    )

    bw_gbps = gpu.stream_bw_gbps * (
        1.0 - _GPU_IRREGULAR_BW_LOSS * work.irregularity
    )
    memory_s = work.bytes_moved / (bw_gbps * 1e9)

    return CostBreakdown(
        compute_s=compute_s,
        memory_s=memory_s,
        overhead_s=gpu.launch_overhead_s * work.gpu_launches,
    )


def pu_cost(work: WorkProfile, pu: "CpuCluster | Gpu") -> CostBreakdown:
    """Dispatch to :func:`cpu_cost` or :func:`gpu_cost` by PU type."""
    if isinstance(pu, CpuCluster):
        return cpu_cost(work, pu)
    if isinstance(pu, Gpu):
        return gpu_cost(work, pu)
    raise TypeError(f"unknown PU type: {type(pu).__name__}")

"""The four evaluated platforms (paper Table 2), as virtual SoCs.

Microarchitectural parameters (cores, frequencies, SIMD widths, GPU sizes)
come from the paper's Table 2 plus public spec sheets.  The *behavioural*
parameters - DVFS responses under load and achievable bandwidths - are
calibrated so the simulator reproduces the paper's observed phenomena:

* Fig. 7 interference ratios: Pixel CPU clusters slow by 1.2-1.4x while
  its Mali GPU speeds up (~0.86x time ratio); the OnePlus little cores and
  Adreno GPU *boost* under load (0.63x / 0.64x); the Jetson's CUDA GPU
  slows (1.19x normal, 1.74x low-power) and its CPUs slow ~1.3-1.4x.
* Table 3 baseline shapes: GPUs dominate dense CNNs everywhere; CPUs win
  Octree on the mobile parts but lose it on the Jetson; AlexNet-sparse is
  near parity on the Pixel.
* Section 5.1 platform ordering of BetterTogether speedups:
  Pixel > OnePlus > Jetson-LP > Jetson, driven by how much usable
  heterogeneity each exposes (the OnePlus cannot pin its little cores; the
  Jetson has a single CPU class).

Calibration constants are intentionally local to this module; everything
downstream observes them only through measured times.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import PlatformError
from repro.soc.affinity import AffinityEntry, AffinityMap
from repro.soc.interference import DvfsCurve, InterferenceModel
from repro.soc.platform import Platform
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM, CpuCluster, Gpu
from repro.soc.timer import MeasurementNoise

_DEFAULT_SEED = 2025


def pixel_7a(seed: int = _DEFAULT_SEED) -> Platform:
    """Google Pixel 7a: Tensor G2, three CPU tiers + Mali-G710 (Vulkan).

    Fully pinnable - the platform where BetterTogether has the most
    heterogeneity to exploit (section 5.1).
    """
    clusters = {
        BIG: CpuCluster(
            pu_class=BIG, model="Cortex-X1", cores=2, freq_ghz=2.85,
            flops_per_cycle=16.0, irregularity_tolerance=0.85,
            dispatch_overhead_s=30e-6, stream_bw_gbps=14.0,
            core_ids=(6, 7), sustained_efficiency=0.45,
        ),
        MEDIUM: CpuCluster(
            pu_class=MEDIUM, model="Cortex-A78", cores=2, freq_ghz=2.35,
            flops_per_cycle=8.0, irregularity_tolerance=0.70,
            dispatch_overhead_s=30e-6, stream_bw_gbps=10.0,
            core_ids=(4, 5), sustained_efficiency=0.50,
        ),
        LITTLE: CpuCluster(
            pu_class=LITTLE, model="Cortex-A55", cores=4, freq_ghz=1.80,
            flops_per_cycle=4.0, irregularity_tolerance=0.35,
            dispatch_overhead_s=45e-6, stream_bw_gbps=6.0,
            core_ids=(0, 1, 2, 3), sustained_efficiency=0.50,
        ),
    }
    gpu = Gpu(
        model="Mali-G710 MP7", vendor="arm", api="vulkan",
        compute_units=7, lanes_per_unit=48, freq_ghz=0.85,
        flops_per_lane_cycle=2.0, divergence_penalty=6.0,
        irregularity_penalty=5.0, launch_overhead_s=130e-6,
        min_parallelism=8192.0, stream_bw_gbps=18.0,
        sustained_efficiency=0.70,
    )
    interference = InterferenceModel(
        dram_bw_gbps=30.0,
        dvfs={
            # CPU clusters throttle under full system load (Fig. 7:
            # 1.40x / 1.20x / 1.39x time ratios including contention).
            BIG: DvfsCurve(speed_at_full_load=0.66),
            MEDIUM: DvfsCurve(speed_at_full_load=0.80),
            LITTLE: DvfsCurve(speed_at_full_load=0.68),
            # Vendor firmware boosts the Mali clock under heavy CPU load
            # (section 5.3; up to ~2x was observed on some stages).
            GPU: DvfsCurve(speed_at_full_load=1.60),
        },
    )
    affinity = AffinityMap(
        {
            BIG: AffinityEntry(core_ids=(6, 7)),
            MEDIUM: AffinityEntry(core_ids=(4, 5)),
            LITTLE: AffinityEntry(core_ids=(0, 1, 2, 3)),
        }
    )
    return Platform(
        name="pixel7a", display_name="Google Pixel 7a",
        soc_model="Google Tensor G2", clusters=clusters, gpu=gpu,
        interference=interference, affinity=affinity,
        noise=MeasurementNoise(sigma=0.03, seed=seed),
        os_name="Android (Linux 6.1.99)",
    )


def oneplus_11(seed: int = _DEFAULT_SEED) -> Platform:
    """OnePlus 11: Snapdragon 8 Gen 2, X3 + A715/A710 + A510 + Adreno 740.

    Only 5 of 8 cores are pinnable (big + medium); the little cluster is
    profiled but not schedulable, reducing exploitable heterogeneity
    relative to the Pixel (section 5.1).
    """
    clusters = {
        BIG: CpuCluster(
            pu_class=BIG, model="Cortex-X3", cores=1, freq_ghz=3.2,
            flops_per_cycle=16.0, irregularity_tolerance=0.90,
            dispatch_overhead_s=25e-6, stream_bw_gbps=17.0,
            core_ids=(7,), sustained_efficiency=0.75,
        ),
        MEDIUM: CpuCluster(
            pu_class=MEDIUM, model="Cortex-A715/A710", cores=4,
            freq_ghz=2.8, flops_per_cycle=8.0,
            irregularity_tolerance=0.75, dispatch_overhead_s=28e-6,
            stream_bw_gbps=15.0, core_ids=(3, 4, 5, 6),
            sustained_efficiency=0.50,
        ),
        LITTLE: CpuCluster(
            pu_class=LITTLE, model="Cortex-A510", cores=3, freq_ghz=2.0,
            flops_per_cycle=4.0, irregularity_tolerance=0.30,
            dispatch_overhead_s=45e-6, stream_bw_gbps=5.0,
            core_ids=(0, 1, 2), sustained_efficiency=0.50, pinnable=False,
        ),
    }
    gpu = Gpu(
        model="Adreno 740", vendor="qualcomm", api="vulkan",
        compute_units=6, lanes_per_unit=128, freq_ghz=0.68,
        flops_per_lane_cycle=2.0, divergence_penalty=7.0,
        irregularity_penalty=6.0, launch_overhead_s=110e-6,
        min_parallelism=16384.0, stream_bw_gbps=30.0,
        sustained_efficiency=0.35,
    )
    interference = InterferenceModel(
        dram_bw_gbps=42.0,
        dvfs={
            BIG: DvfsCurve(speed_at_full_load=0.68),
            MEDIUM: DvfsCurve(speed_at_full_load=1.0),
            # The A510s clock *up* when the system is loaded - the paper's
            # most surprising observation (section 5.3, ratio 0.63).
            LITTLE: DvfsCurve(speed_at_full_load=1.90),
            GPU: DvfsCurve(speed_at_full_load=1.95),
        },
    )
    affinity = AffinityMap(
        {
            BIG: AffinityEntry(core_ids=(7,)),
            MEDIUM: AffinityEntry(core_ids=(3, 4, 5, 6)),
            LITTLE: AffinityEntry(core_ids=(0, 1, 2), pinnable=False),
        }
    )
    return Platform(
        name="oneplus11", display_name="OnePlus 11",
        soc_model="Snapdragon 8 Gen 2", clusters=clusters, gpu=gpu,
        interference=interference, affinity=affinity,
        noise=MeasurementNoise(sigma=0.03, seed=seed),
        os_name="Android (Linux 5.15.149)",
    )


def jetson_orin_nano(seed: int = _DEFAULT_SEED) -> Platform:
    """NVIDIA Jetson Orin Nano 8GB: 6x A78AE + Ampere GPU (CUDA).

    A single CPU class plus the GPU - the least heterogeneous platform,
    which is why BetterTogether's gains are smallest here (1.09x geomean
    in the paper).
    """
    clusters = {
        BIG: CpuCluster(
            pu_class=BIG, model="Cortex-A78AE", cores=6, freq_ghz=1.7,
            flops_per_cycle=8.0, irregularity_tolerance=0.72,
            dispatch_overhead_s=20e-6, stream_bw_gbps=24.0,
            core_ids=(0, 1, 2, 3, 4, 5), sustained_efficiency=0.50,
        ),
    }
    gpu = Gpu(
        model="Ampere (1024 CUDA cores)", vendor="nvidia", api="cuda",
        compute_units=8, lanes_per_unit=128, freq_ghz=0.625,
        flops_per_lane_cycle=2.0, divergence_penalty=3.5,
        irregularity_penalty=2.0, launch_overhead_s=8e-6,
        min_parallelism=16384.0, stream_bw_gbps=48.0,
        sustained_efficiency=0.60,
    )
    interference = InterferenceModel(
        dram_bw_gbps=58.0,
        dvfs={
            BIG: DvfsCurve(speed_at_full_load=0.64),
            # CUDA GPU throttles moderately under shared load (Fig. 7).
            GPU: DvfsCurve(speed_at_full_load=0.82),
        },
    )
    affinity = AffinityMap(
        {BIG: AffinityEntry(core_ids=(0, 1, 2, 3, 4, 5))}
    )
    return Platform(
        name="jetson_orin_nano", display_name="Jetson Orin Nano",
        soc_model="NVIDIA Orin (8GB)", clusters=clusters, gpu=gpu,
        interference=interference, affinity=affinity,
        noise=MeasurementNoise(sigma=0.02, seed=seed),
        os_name="Ubuntu 22.04 (L4T 5.15.148-tegra)",
    )


def jetson_orin_nano_lp(seed: int = _DEFAULT_SEED) -> Platform:
    """Jetson Orin Nano in its 7 W low-power mode.

    Two cores shut off, CPU and memory clocks roughly halved, GPU clock
    reduced; the tight power budget makes the GPU throttle hard when the
    CPUs are also busy (Fig. 7 shows a 1.74x slowdown).
    """
    clusters = {
        BIG: CpuCluster(
            pu_class=BIG, model="Cortex-A78AE", cores=4, freq_ghz=0.85,
            flops_per_cycle=8.0, irregularity_tolerance=0.72,
            dispatch_overhead_s=25e-6, stream_bw_gbps=16.0,
            core_ids=(0, 1, 2, 3), sustained_efficiency=0.50,
        ),
    }
    gpu = Gpu(
        model="Ampere (1024 CUDA cores, LP)", vendor="nvidia", api="cuda",
        compute_units=8, lanes_per_unit=128, freq_ghz=0.306,
        flops_per_lane_cycle=2.0, divergence_penalty=3.5,
        irregularity_penalty=2.0, launch_overhead_s=10e-6,
        min_parallelism=16384.0, stream_bw_gbps=30.0,
        sustained_efficiency=0.60,
    )
    interference = InterferenceModel(
        dram_bw_gbps=34.0,
        dvfs={
            BIG: DvfsCurve(speed_at_full_load=0.73),
            GPU: DvfsCurve(speed_at_full_load=0.52),
        },
    )
    affinity = AffinityMap(
        {BIG: AffinityEntry(core_ids=(0, 1, 2, 3))}
    )
    return Platform(
        name="jetson_orin_nano_lp",
        display_name="Jetson Orin Nano (low-power)",
        soc_model="NVIDIA Orin (8GB, 7W mode)", clusters=clusters, gpu=gpu,
        interference=interference, affinity=affinity,
        noise=MeasurementNoise(sigma=0.02, seed=seed),
        os_name="Ubuntu 22.04 (L4T 5.15.148-tegra)",
    )


def raspberry_pi5(seed: int = _DEFAULT_SEED) -> Platform:
    """Raspberry Pi 5: 4x Cortex-A76, no usable compute GPU (extension).

    Not part of the paper's evaluation; included to exercise CPU-only
    platforms (the VideoCore GPU has no practical GPGPU path; BetterTogether
    degenerates to a single-class scheduler, a useful boundary case).
    """
    clusters = {
        BIG: CpuCluster(
            pu_class=BIG, model="Cortex-A76", cores=4, freq_ghz=2.4,
            flops_per_cycle=8.0, irregularity_tolerance=0.75,
            dispatch_overhead_s=20e-6, stream_bw_gbps=12.0,
            core_ids=(0, 1, 2, 3), sustained_efficiency=0.7,
        ),
    }
    interference = InterferenceModel(
        dram_bw_gbps=17.0,
        dvfs={BIG: DvfsCurve(speed_at_full_load=0.85)},
    )
    affinity = AffinityMap(
        {BIG: AffinityEntry(core_ids=(0, 1, 2, 3))}, has_gpu=False
    )
    return Platform(
        name="raspberry_pi5", display_name="Raspberry Pi 5",
        soc_model="Broadcom BCM2712", clusters=clusters, gpu=None,
        interference=interference, affinity=affinity,
        noise=MeasurementNoise(sigma=0.02, seed=seed),
        os_name="Raspberry Pi OS (Linux 6.6)",
    )


_BUILDERS: Dict[str, Callable[[int], Platform]] = {
    "pixel7a": pixel_7a,
    "oneplus11": oneplus_11,
    "jetson_orin_nano": jetson_orin_nano,
    "jetson_orin_nano_lp": jetson_orin_nano_lp,
    "raspberry_pi5": raspberry_pi5,
}

#: Evaluation order used throughout the paper's tables and figures
#: (extension platforms are registered but not part of the grid).
PLATFORM_NAMES = (
    "pixel7a", "oneplus11", "jetson_orin_nano", "jetson_orin_nano_lp",
)


def get_platform(name: str, seed: int = _DEFAULT_SEED) -> Platform:
    """Build a platform by registry name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise PlatformError(
            f"unknown platform {name!r}; known: {known}"
        ) from None
    return builder(seed)


def all_platforms() -> List[Platform]:
    """All four evaluated platforms, in paper order."""
    return [get_platform(name) for name in PLATFORM_NAMES]

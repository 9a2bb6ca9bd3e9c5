"""Virtual heterogeneous-SoC substrate.

Stands in for the physical devices of the paper's evaluation (Google Pixel
7a, OnePlus 11, NVIDIA Jetson Orin Nano in two power modes).  Provides
processing-unit models, a roofline cost model, the intra-application
interference model the paper is built around, affinity maps, virtual
timers with deterministic measurement noise, and a registry of the four
calibrated platforms.
"""

from repro.soc.affinity import AffinityEntry, AffinityMap
from repro.soc.cost_model import CostBreakdown, cpu_cost, gpu_cost, pu_cost
from repro.soc.interference import (
    DvfsCurve,
    ExternalLoad,
    InterferenceModel,
    external_co_load,
)
from repro.soc.platform import Platform
from repro.soc.energy import (
    EnergyReport,
    PowerSpec,
    estimate_energy,
    power_table,
)
from repro.soc.platforms import (
    PLATFORM_NAMES,
    all_platforms,
    get_platform,
    jetson_orin_nano,
    jetson_orin_nano_lp,
    oneplus_11,
    pixel_7a,
    raspberry_pi5,
)
from repro.soc.pu import (
    ALL_CLASSES,
    BIG,
    CPU_CLASSES,
    GPU,
    LITTLE,
    MEDIUM,
    CpuCluster,
    Gpu,
)
from repro.soc.timer import MeasurementNoise, mean_of_measurements
from repro.soc.workprofile import WorkProfile

__all__ = [
    "ALL_CLASSES",
    "AffinityEntry",
    "AffinityMap",
    "BIG",
    "CPU_CLASSES",
    "CostBreakdown",
    "CpuCluster",
    "DvfsCurve",
    "EnergyReport",
    "ExternalLoad",
    "GPU",
    "Gpu",
    "InterferenceModel",
    "LITTLE",
    "MEDIUM",
    "MeasurementNoise",
    "PLATFORM_NAMES",
    "Platform",
    "PowerSpec",
    "WorkProfile",
    "all_platforms",
    "cpu_cost",
    "estimate_energy",
    "external_co_load",
    "get_platform",
    "gpu_cost",
    "jetson_orin_nano",
    "jetson_orin_nano_lp",
    "mean_of_measurements",
    "oneplus_11",
    "pixel_7a",
    "power_table",
    "pu_cost",
    "raspberry_pi5",
]

"""Fig. 7: the impact of interference - per-PU average ratio of
interference-heavy to isolated profiled execution time, per device.

Paper shape targets:

* Pixel: every CPU cluster slows (little 1.39x, medium 1.20x, big
  1.40x) while the Mali GPU speeds up (0.86x).
* OnePlus: big slows (1.38x), medium unaffected (1.00x), and both the
  little cores (0.63x) and the Adreno GPU (0.64x) *speed up* under load.
* Jetson: CPU slows ~1.4x, CUDA GPU slows 1.19x; low-power mode: CPU
  ~1.3x, GPU 1.74x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.profiler import BTProfiler, interference_ratios
from repro.eval.experiments.common import (
    APP_ORDER,
    PLATFORM_LABELS,
    ExperimentScale,
    build_applications,
    evaluation_platforms,
)
from repro.eval.metrics import arithmetic_mean, format_table

#: Paper's Fig. 7 values: (platform, pu) -> ratio, for shape checks.
PAPER_RATIOS: Dict[Tuple[str, str], float] = {
    ("pixel7a", "little"): 1.39,
    ("pixel7a", "medium"): 1.20,
    ("pixel7a", "big"): 1.40,
    ("pixel7a", "gpu"): 0.86,
    ("oneplus11", "big"): 1.38,
    ("oneplus11", "medium"): 1.00,
    ("oneplus11", "little"): 0.63,
    ("oneplus11", "gpu"): 0.64,
    ("jetson_orin_nano", "big"): 1.43,
    ("jetson_orin_nano", "gpu"): 1.19,
    ("jetson_orin_nano_lp", "big"): 1.29,
    ("jetson_orin_nano_lp", "gpu"): 1.74,
}


@dataclass
class Fig7Result:
    """(platform, pu) -> mean interference/isolated ratio across apps."""

    ratios: Dict[Tuple[str, str], float]

    def direction_matches_paper(self, key: Tuple[str, str]) -> bool:
        """Same side of 1.0 as the paper; a paper ratio within 0.05 of
        1.0 is neutral, matched by any ratio within 0.15."""
        ours = self.ratios[key]
        paper = PAPER_RATIOS[key]
        if abs(paper - 1.0) <= 0.05:
            return abs(ours - 1.0) <= 3 * 0.05
        return (ours - 1.0) * (paper - 1.0) > 0

    def directions_matching(self) -> int:
        return sum(
            1 for key in PAPER_RATIOS
            if key in self.ratios and self.direction_matches_paper(key)
        )


def run_fig7(scale: ExperimentScale = None) -> Fig7Result:
    scale = scale or ExperimentScale.paper()
    applications = build_applications(scale)
    per_pu: Dict[Tuple[str, str], List[float]] = {}
    for platform in evaluation_platforms():
        profiler = BTProfiler(platform, repetitions=scale.repetitions)
        for app_name in APP_ORDER:
            isolated, interference = profiler.profile_both(
                applications[app_name]
            )
            for pu, ratio in interference_ratios(
                isolated, interference
            ).items():
                per_pu.setdefault((platform.name, pu), []).append(ratio)
    return Fig7Result(
        ratios={key: arithmetic_mean(vals) for key, vals in per_pu.items()}
    )


def format_fig7(result: Fig7Result) -> str:
    pu_order = ("little", "medium", "big", "gpu")
    platforms = sorted({p for p, _ in result.ratios},
                       key=list(PLATFORM_LABELS).index)
    rows: List[List[str]] = [["Device"] + list(pu_order)]
    for platform in platforms:
        row = [PLATFORM_LABELS[platform]]
        for pu in pu_order:
            key = (platform, pu)
            if key in result.ratios:
                paper = PAPER_RATIOS.get(key)
                suffix = f" (paper {paper:.2f})" if paper else ""
                row.append(f"{result.ratios[key]:.2f}{suffix}")
            else:
                row.append("-")
        rows.append(row)
    footer = (
        f"slowdown/speedup directions matching paper: "
        f"{result.directions_matching()}/{len(PAPER_RATIOS)}"
    )
    return (
        "Fig. 7 - interference-heavy / isolated time ratio "
        "(>1 slowdown, <1 speedup)\n"
        + format_table(rows) + "\n" + footer
    )

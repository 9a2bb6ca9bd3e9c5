"""Fig. 1: per-stage execution-time heterogeneity on the Google Pixel.

The paper's motivating figure: three Octree stages (Sort, Build Radix
Tree, Octree construction) timed on three Pixel PUs (big, medium, GPU)
show opposite affinities - the GPU is worst at sorting, best at the radix
tree, and comparable to the CPUs for octree construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps import build_octree_application
from repro.baselines.homogeneous import per_stage_baseline_times
from repro.eval.experiments.common import ExperimentScale
from repro.eval.metrics import format_table
from repro.soc import get_platform
from repro.soc.pu import BIG, GPU, MEDIUM

#: The subset of stages and PUs Fig. 1 plots.
FIG1_STAGES = ("sort", "radix-tree", "build-octree")
FIG1_PUS = (BIG, MEDIUM, GPU)


@dataclass
class Fig1Result:
    """Per-(stage, PU) isolated latency in seconds."""

    times_s: Dict[str, Dict[str, float]]

    def gpu_is_worst_at_sort(self) -> bool:
        row = self.times_s["sort"]
        return row[GPU] == max(row.values())

    def gpu_is_best_at_radix_tree(self) -> bool:
        row = self.times_s["radix-tree"]
        return row[GPU] == min(row.values())

    def octree_build_is_balanced(self) -> bool:
        """Big, medium and GPU within a factor of six of each other."""
        row = self.times_s["build-octree"]
        return max(row.values()) <= 6.0 * min(row.values())


def run_fig1(scale: ExperimentScale = None) -> Fig1Result:
    scale = scale or ExperimentScale.paper()
    platform = get_platform("pixel7a")
    application = build_octree_application(n_points=scale.n_points)
    full = per_stage_baseline_times(application, platform)
    times = {
        stage: {pu: full[stage][pu] for pu in FIG1_PUS}
        for stage in FIG1_STAGES
    }
    return Fig1Result(times_s=times)


def format_fig1(result: Fig1Result) -> str:
    rows: List[List[str]] = [["stage (ms)"] + list(FIG1_PUS)]
    for stage in FIG1_STAGES:
        rows.append(
            [stage]
            + [f"{result.times_s[stage][pu] * 1e3:.3f}" for pu in FIG1_PUS]
        )
    checks = [
        f"GPU worst at sort:        {result.gpu_is_worst_at_sort()}",
        f"GPU best at radix tree:   {result.gpu_is_best_at_radix_tree()}",
        f"octree build balanced:    {result.octree_build_is_balanced()}",
    ]
    return (
        "Fig. 1 - stage heterogeneity on Google Pixel 7a\n"
        + format_table(rows) + "\n" + "\n".join(checks)
    )

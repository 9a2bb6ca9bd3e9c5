"""Fig. 4: BetterTogether speedup over the best homogeneous baseline.

Shape targets: speedup > 1 in (nearly) every cell, the Pixel sees the
largest gains and the normal-power Jetson the smallest, the grid maximum
lands on Pixel/Octree, and the overall geomean sits in the paper's 2-3x
band (the paper itself reports 2.17x in section 5.1 and 2.72x in the
abstract for the same figure; see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.homogeneous import measure_baselines
from repro.core.framework import BetterTogether
from repro.eval.experiments.common import (
    APP_ORDER,
    PLATFORM_LABELS,
    ExperimentScale,
    build_applications,
    evaluation_platforms,
)
from repro.eval.metrics import format_table, geometric_mean


@dataclass
class Fig4Cell:
    """One (app, platform) outcome."""

    bt_latency_s: float
    baseline_latency_s: float
    baseline_name: str
    schedule: str

    @property
    def speedup(self) -> float:
        return self.baseline_latency_s / self.bt_latency_s


@dataclass
class Fig4Result:
    cells: Dict[Tuple[str, str], Fig4Cell]

    def platform_geomean(self, platform: str) -> float:
        return geometric_mean(
            cell.speedup
            for (app, plat), cell in self.cells.items()
            if plat == platform
        )

    @property
    def overall_geomean(self) -> float:
        return geometric_mean(c.speedup for c in self.cells.values())

    @property
    def max_speedup(self) -> Tuple[Tuple[str, str], float]:
        key = max(self.cells, key=lambda k: self.cells[k].speedup)
        return key, self.cells[key].speedup


def run_fig4(scale: ExperimentScale = None) -> Fig4Result:
    scale = scale or ExperimentScale.paper()
    applications = build_applications(scale)
    cells: Dict[Tuple[str, str], Fig4Cell] = {}
    for platform in evaluation_platforms():
        framework = BetterTogether(
            platform,
            repetitions=scale.repetitions,
            k=scale.k,
            eval_tasks=scale.eval_tasks,
        )
        for app_name in APP_ORDER:
            application = applications[app_name]
            plan = framework.run(application)
            baseline = measure_baselines(application, platform,
                                         n_tasks=30)
            cells[(app_name, platform.name)] = Fig4Cell(
                bt_latency_s=plan.measured_latency_s,
                baseline_latency_s=baseline.best_latency_s,
                baseline_name=baseline.best_name,
                schedule=plan.schedule.describe(application),
            )
    return Fig4Result(cells=cells)


def format_fig4(result: Fig4Result) -> str:
    rows: List[List[str]] = [
        ["Device"] + list(APP_ORDER) + ["geomean"]
    ]
    platforms = sorted({p for _, p in result.cells},
                       key=list(PLATFORM_LABELS).index)
    for platform in platforms:
        row = [PLATFORM_LABELS[platform]]
        for app in APP_ORDER:
            row.append(f"{result.cells[(app, platform)].speedup:.2f}x")
        row.append(f"{result.platform_geomean(platform):.2f}x")
        rows.append(row)
    (max_app, max_plat), max_speed = result.max_speedup
    footer = [
        f"overall geomean: {result.overall_geomean:.2f}x "
        "(paper: 2.17x in section 5.1 / 2.72x in the abstract)",
        f"max: {max_speed:.2f}x on {max_app} @ "
        f"{PLATFORM_LABELS[max_plat]} (paper: 8.40x on octree @ Google)",
    ]
    return (
        "Fig. 4 - BetterTogether speedup over best homogeneous baseline\n"
        + format_table(rows) + "\n" + "\n".join(footer)
    )

"""Table 3: raw homogeneous baseline latencies, CPU | GPU, per device.

Shape target (the reproduction contract): the *winner* of every cell
matches the paper - GPUs win dense CNNs everywhere, big CPUs win Octree
on the two phones, the Jetson's CUDA GPU wins Octree, and AlexNet-sparse
sits near CPU/GPU parity on the Pixel while the GPU wins elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.homogeneous import BaselineResult, measure_baselines
from repro.eval.experiments.common import (
    APP_ORDER,
    PLATFORM_LABELS,
    ExperimentScale,
    build_applications,
    evaluation_platforms,
)
from repro.eval.metrics import format_table

#: The paper's Table 3 winners: (app, platform) -> 'cpu' or 'gpu'.
PAPER_WINNERS: Dict[Tuple[str, str], str] = {
    ("alexnet-dense", "pixel7a"): "gpu",
    ("alexnet-dense", "oneplus11"): "gpu",
    ("alexnet-dense", "jetson_orin_nano"): "gpu",
    ("alexnet-dense", "jetson_orin_nano_lp"): "gpu",
    ("alexnet-sparse", "pixel7a"): "gpu",
    ("alexnet-sparse", "oneplus11"): "gpu",
    ("alexnet-sparse", "jetson_orin_nano"): "gpu",
    ("alexnet-sparse", "jetson_orin_nano_lp"): "gpu",
    ("octree", "pixel7a"): "cpu",
    ("octree", "oneplus11"): "cpu",
    ("octree", "jetson_orin_nano"): "gpu",
    ("octree", "jetson_orin_nano_lp"): "gpu",
}


@dataclass
class Table3Result:
    """(app, platform) -> measured homogeneous baselines."""

    cells: Dict[Tuple[str, str], BaselineResult]

    def winner(self, app: str, platform: str) -> str:
        return self.cells[(app, platform)].best_name

    def winners_matching_paper(self) -> int:
        return sum(
            1
            for key, paper in PAPER_WINNERS.items()
            if key in self.cells and self.winner(*key) == paper
        )

    @property
    def total_cells(self) -> int:
        return len(self.cells)


def run_table3(scale: ExperimentScale = None) -> Table3Result:
    scale = scale or ExperimentScale.paper()
    applications = build_applications(scale)
    cells: Dict[Tuple[str, str], BaselineResult] = {}
    for platform in evaluation_platforms():
        for app_name in APP_ORDER:
            cells[(app_name, platform.name)] = measure_baselines(
                applications[app_name], platform, n_tasks=30
            )
    return Table3Result(cells=cells)


def format_table3(result: Table3Result) -> str:
    header = ["Device"] + [f"{a} (CPU|GPU ms)" for a in APP_ORDER]
    rows: List[List[str]] = [header]
    platforms = sorted({p for _, p in result.cells}, key=list(
        PLATFORM_LABELS).index)
    for platform in platforms:
        row = [PLATFORM_LABELS[platform]]
        for app in APP_ORDER:
            cell = result.cells[(app, platform)]
            cpu, gpu = cell.as_row()
            marker_cpu = "*" if cell.best_name == "cpu" else " "
            marker_gpu = "*" if cell.best_name == "gpu" else " "
            row.append(f"{cpu}{marker_cpu}| {gpu}{marker_gpu}")
        rows.append(row)
    summary = (
        f"winners matching paper: "
        f"{result.winners_matching_paper()}/{result.total_cells}"
    )
    return (
        "Table 3 - homogeneous baselines (lower is better, * = winner)\n"
        + format_table(rows) + "\n" + summary
    )

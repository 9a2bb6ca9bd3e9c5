"""Table 4: the autotuning campaign log for AlexNet-sparse on the Pixel.

Measured and predicted latency for the top-10 candidates; schedule #1 is
the predicted-best, and the paper's measured-best (its #4) beat it by
1.35x - the gain level-3 autotuning delivers on top of the model.

Shape target: the measured-best differs from (or at least never loses
to) the predicted-best, with a tangible autotuning gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.autotuner import AutotuneResult
from repro.core.framework import BetterTogether
from repro.eval.experiments.common import (
    ExperimentScale,
    build_applications,
)
from repro.eval.metrics import format_table
from repro.soc import get_platform


@dataclass
class Table4Result:
    autotune: AutotuneResult
    shown: int

    @property
    def autotuning_gain(self) -> float:
        return self.autotune.autotuning_gain


def run_table4(scale: ExperimentScale = None) -> Table4Result:
    scale = scale or ExperimentScale.paper()
    platform = get_platform("pixel7a")
    application = build_applications(scale)["alexnet-sparse"]
    framework = BetterTogether(
        platform, repetitions=scale.repetitions, k=scale.k,
        eval_tasks=scale.eval_tasks,
    )
    table = framework.profile(application)
    optimization = framework.optimize(application, table)
    autotune = framework.autotune(application, optimization)
    return Table4Result(
        autotune=autotune,
        shown=min(10, len(autotune.entries)),
    )


def format_table4(result: Table4Result) -> str:
    entries = result.autotune.entries[: result.shown]
    reference = entries[0]
    rows: List[List[str]] = [
        ["#"] + [str(e.rank + 1) for e in entries],
        ["Measured (ms)"]
        + [f"{e.measured_latency_s * 1e3:.2f}" for e in entries],
        ["Predicted (ms)"]
        + [f"{e.predicted_latency_s * 1e3:.2f}" for e in entries],
        ["Speedup vs #1"]
        + [f"{e.speedup_over(reference):.2f}" for e in entries],
    ]
    best = result.autotune.measured_best
    footer = (
        f"measured best: #{best.rank + 1} "
        f"({best.measured_latency_s * 1e3:.2f} ms); autotuning gain "
        f"{result.autotuning_gain:.2f}x over the predicted-best "
        "(paper: 1.35x)"
    )
    return (
        f"Table 4 - top-{result.shown} autotuning log, "
        "alexnet-sparse @ pixel7a\n"
        + format_table(rows) + "\n" + footer
    )

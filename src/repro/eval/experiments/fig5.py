"""Fig. 5: predicted vs. measured latency for the top-20 schedules of
AlexNet-sparse on the Google Pixel, under three modeling flows:

(a) BetterTogether: interference-aware table + gapness filter + latency,
(b) latency-only optimization over the interference-aware table,
(c) the prior-work standard: isolated table + latency-only optimization.

Shape target: (a) correlates strongly; (b) and (c) visibly worse, with
(c) the worst (its predictions are also systematically optimistic - the
paper's motivating example predicted 4.95 ms and measured 7.77 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.prior_models import (
    isolated_latency_only_candidates,
    latency_only_candidates,
)
from repro.core.framework import BetterTogether
from repro.core.profiler import ISOLATED, BTProfiler
from repro.eval.experiments.common import (
    ExperimentScale,
    build_applications,
    measure_candidates,
)
from repro.eval.metrics import format_table, safe_pearson
from repro.soc import get_platform

FLOW_LABELS = {
    "bettertogether": "(a) BetterTogether",
    "latency-only": "(b) latency-only, interference table",
    "isolated": "(c) isolated table, latency-only",
}


@dataclass
class Fig5Series:
    """One subfigure's scatter series (rank-ordered candidates)."""

    predicted_s: List[float]
    measured_s: List[float]

    @property
    def correlation(self) -> float:
        return safe_pearson(self.predicted_s, self.measured_s)

    @property
    def mean_abs_error_frac(self) -> float:
        """Mean |predicted - measured| / measured."""
        return sum(
            abs(p - m) / m
            for p, m in zip(self.predicted_s, self.measured_s)
        ) / len(self.measured_s)


@dataclass
class Fig5Result:
    series: Dict[str, Fig5Series]

    def bt_beats_prior_flows(self) -> bool:
        bt = self.series["bettertogether"].correlation
        return all(
            bt >= self.series[flow].correlation - 1e-9
            for flow in ("latency-only", "isolated")
        )


def run_fig5(scale: ExperimentScale = None) -> Fig5Result:
    scale = scale or ExperimentScale.paper()
    platform = get_platform("pixel7a")
    application = build_applications(scale)["alexnet-sparse"]
    schedulable = platform.schedulable_classes()

    framework = BetterTogether(
        platform, repetitions=scale.repetitions, k=scale.k,
        eval_tasks=scale.eval_tasks,
    )
    interference_table = framework.profile(application)
    isolated_table = BTProfiler(
        platform, repetitions=scale.repetitions
    ).profile(application, mode=ISOLATED)

    flows = {
        "bettertogether": framework.optimize(application,
                                             interference_table),
        "latency-only": latency_only_candidates(
            application,
            interference_table.restricted(schedulable),
            k=scale.k,
        ),
        "isolated": isolated_latency_only_candidates(
            application, platform, k=scale.k, table=isolated_table,
        ),
    }
    series = {}
    for name, optimization in flows.items():
        predicted, measured = measure_candidates(
            application, platform, optimization, scale.eval_tasks
        )
        series[name] = Fig5Series(predicted_s=predicted,
                                  measured_s=measured)
    return Fig5Result(series=series)


def format_fig5(result: Fig5Result) -> str:
    rows: List[List[str]] = [
        ["flow", "r (pred vs meas)", "mean |err|"]
    ]
    for name in ("bettertogether", "latency-only", "isolated"):
        s = result.series[name]
        rows.append([
            FLOW_LABELS[name],
            f"{s.correlation:.3f}",
            f"{s.mean_abs_error_frac * 100:.1f}%",
        ])
    check = f"BT correlation is the best: {result.bt_beats_prior_flows()}"
    return (
        f"Fig. 5 - predicted vs measured, top-{len(result.series['bettertogether'].predicted_s)} "
        "schedules, alexnet-sparse @ pixel7a\n"
        + format_table(rows) + "\n" + check
    )

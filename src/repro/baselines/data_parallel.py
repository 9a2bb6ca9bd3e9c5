"""Data-parallel heterogeneous baseline (paper section 1).

The paper's introduction dismisses the classic alternative to pipelining:
split each stage's *data* across every PU proportionally to its speed
([24] in the paper).  It is suboptimal because every PU must execute every
stage - including the ones it is terrible at (the GPU still sorts, the
little cores still run dense convolutions).

This module provides that baseline analytically so the claim can be
checked: with a work split that equalizes finish times, a stage's
duration is the harmonic combination of the per-PU co-run latencies, and
the task latency is the sum over stages (data-parallel stages cannot
overlap across tasks the way pipeline chunks do without additional
buffering machinery; we model the paper's synchronous splits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import SchedulingError
from repro.soc.platform import Platform
from repro.stage import Application


@dataclass(frozen=True)
class DataParallelResult:
    """Analytic data-parallel execution estimate."""

    application: str
    platform: str
    per_stage_s: Dict[str, float]
    fractions: Dict[str, Dict[str, float]]

    @property
    def task_latency_s(self) -> float:
        return sum(self.per_stage_s.values())


def data_parallel_baseline(
    application: Application,
    platform: Platform,
    pu_classes: Sequence[str] = (),
) -> DataParallelResult:
    """Estimate the optimal-split data-parallel execution.

    For each stage, every PU ``p`` receives a fraction ``f_p`` of the data
    chosen so all PUs finish together under full co-run load (every PU is
    busy during every stage - the defining property of this strategy):

    ``f_p = (1 / t_p) / sum_q (1 / t_q)`` and the stage takes
    ``1 / sum_q (1 / t_q)`` where ``t_q`` is the stage's co-run latency
    on PU ``q``.
    """
    pus = tuple(pu_classes) or platform.schedulable_classes()
    if not pus:
        raise SchedulingError("no PUs to split data across")
    per_stage: Dict[str, float] = {}
    fractions: Dict[str, Dict[str, float]] = {}
    for stage in application.stages:
        costs = {pu: platform.stage_cost(stage.work, pu) for pu in pus}
        total_demand = sum(cost.demand_gbps for cost in costs.values())
        # Split a PU's co-run time into the fixed dispatch/launch
        # overhead (paid in full by *every* participating PU, every
        # stage - it cannot be fractionally split) and the divisible
        # work portion.
        overheads: Dict[str, float] = {}
        work: Dict[str, float] = {}
        for pu in pus:
            total = platform.true_time(
                stage.work,
                pu,
                co_load=1.0,
                other_demand_gbps=total_demand - costs[pu].demand_gbps,
            )
            overheads[pu] = costs[pu].overhead_s
            work[pu] = max(total - costs[pu].overhead_s, 1e-12)
        # For each PU subset, the equal-finish split gives
        # T = (1 + sum o_q / w_q) / sum 1 / w_q; pick the best subset
        # (a PU whose overhead exceeds T is worth excluding entirely).
        best_time = float("inf")
        best_subset: Tuple[str, ...] = ()
        for mask in range(1, 1 << len(pus)):
            subset = tuple(
                pu for bit, pu in enumerate(pus) if mask >> bit & 1
            )
            inv = sum(1.0 / work[pu] for pu in subset)
            stage_time = (
                1.0 + sum(overheads[pu] / work[pu] for pu in subset)
            ) / inv
            if any(stage_time < overheads[pu] for pu in subset):
                continue  # infeasible: a member cannot even start
            if stage_time < best_time:
                best_time = stage_time
                best_subset = subset
        per_stage[stage.name] = best_time
        fractions[stage.name] = {
            pu: (
                (best_time - overheads[pu]) / work[pu]
                if pu in best_subset else 0.0
            )
            for pu in pus
        }
    return DataParallelResult(
        application=application.name,
        platform=platform.name,
        per_stage_s=per_stage,
        fractions=fractions,
    )


def split_evenness(result: DataParallelResult) -> Dict[str, float]:
    """Max/min fraction ratio per stage among *participating* PUs -
    large values show PUs being forced onto poorly-suited work (the
    paper's argument against data parallelism).  PUs the optimal split
    excluded entirely (overhead exceeds any useful share) are the same
    argument taken to its limit; :func:`excluded_pus` reports them."""
    out: Dict[str, float] = {}
    for stage, fracs in result.fractions.items():
        values: List[float] = [v for v in fracs.values() if v > 0]
        out[stage] = max(values) / max(min(values), 1e-12)
    return out


def excluded_pus(result: DataParallelResult) -> Dict[str, List[str]]:
    """PUs the optimal split gives no work at all, per stage."""
    return {
        stage: [pu for pu, fraction in fracs.items() if fraction == 0.0]
        for stage, fracs in result.fractions.items()
    }

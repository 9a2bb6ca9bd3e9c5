"""Schedule analysis and explainability tools.

A scheduler users trust is one they can interrogate.  This module turns
profiling tables and schedules into the reports a performance engineer
actually asks for:

* :func:`stage_affinity_report` - which PU wins each stage and by how
  much (the Fig. 1 view, for any application/platform);
* :func:`explain_schedule` - per-chunk time breakdown, the bottleneck,
  gapness, and the predicted pipelining gain over serial execution;
* :func:`speedup_bounds` - how much speedup is theoretically available
  in a table (best serial vs. ideal-parallel lower bound), a quick test
  of whether pipelining is worth deploying at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.eval.metrics import format_table
from repro.stage import Application


@dataclass(frozen=True)
class StageAffinity:
    """Per-stage PU ranking."""

    stage: str
    best_pu: str
    worst_pu: str
    spread: float  # worst latency / best latency


def stage_affinity_report(
    application: Application, table: ProfilingTable
) -> List[StageAffinity]:
    """Rank PUs per stage; large spreads are the heterogeneity the
    scheduler exploits."""
    report = []
    for stage in application.stage_names:
        row = table.row(stage)
        best = min(row, key=row.get)
        worst = max(row, key=row.get)
        report.append(
            StageAffinity(
                stage=stage, best_pu=best, worst_pu=worst,
                spread=row[worst] / row[best],
            )
        )
    return report


def format_affinity_report(report: List[StageAffinity]) -> str:
    """Render an affinity report as an aligned text table."""
    rows = [["stage", "best PU", "worst PU", "spread"]]
    for entry in report:
        rows.append([
            entry.stage, entry.best_pu, entry.worst_pu,
            f"{entry.spread:.1f}x",
        ])
    return format_table(rows)


@dataclass
class ScheduleExplanation:
    """Everything the model can say about one schedule."""

    schedule: Schedule
    chunk_rows: List[Tuple[str, str, float, float]]
    bottleneck_chunk: str
    predicted_latency_s: float
    gapness_s: float
    serial_latency_s: float
    pipelining_gain: float


def explain_schedule(
    application: Application,
    schedule: Schedule,
    table: ProfilingTable,
) -> ScheduleExplanation:
    """Decompose a schedule's predicted behaviour chunk by chunk."""
    chunk_times = schedule.chunk_times(application, table)
    rows: List[Tuple[str, str, float, float]] = []
    latency = max(chunk_times.values())
    bottleneck = None
    for chunk, seconds in chunk_times.items():
        names = [application.stages[i].name for i in chunk.stage_indices]
        label = names[0] if len(names) == 1 else f"{names[0]}..{names[-1]}"
        rows.append((label, chunk.pu_class, seconds, seconds / latency))
        if seconds == latency:
            bottleneck = label
    serial = schedule.predicted_serial_latency(application, table)
    return ScheduleExplanation(
        schedule=schedule,
        chunk_rows=rows,
        bottleneck_chunk=bottleneck,
        predicted_latency_s=latency,
        gapness_s=schedule.gapness(application, table),
        serial_latency_s=serial,
        pipelining_gain=serial / latency,
    )


def format_explanation(explanation: ScheduleExplanation) -> str:
    """Render a schedule explanation as text."""
    rows = [["chunk", "PU", "time (ms)", "of bottleneck"]]
    for label, pu, seconds, fraction in explanation.chunk_rows:
        rows.append([
            label, pu, f"{seconds * 1e3:.3f}", f"{fraction * 100:.0f}%",
        ])
    lines = [
        format_table(rows),
        f"bottleneck: {explanation.bottleneck_chunk} "
        f"({explanation.predicted_latency_s * 1e3:.3f} ms); gapness "
        f"{explanation.gapness_s * 1e3:.3f} ms",
        f"serial execution would take "
        f"{explanation.serial_latency_s * 1e3:.3f} ms -> pipelining gain "
        f"{explanation.pipelining_gain:.2f}x",
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class SpeedupBounds:
    """Model-level bounds on what scheduling can achieve.

    Attributes:
        best_serial_s: Best single-PU (homogeneous) latency.
        ideal_parallel_s: Lower bound on any schedule's bottleneck
            (fastest single stage, and per-stage-best work spread over
            all PUs).
        max_speedup: Their ratio - the ceiling on BetterTogether's gain
            for this (application, platform) pair.
    """

    best_serial_s: float
    ideal_parallel_s: float

    @property
    def max_speedup(self) -> float:
        return self.best_serial_s / self.ideal_parallel_s


def speedup_bounds(application: Application,
                   table: ProfilingTable) -> SpeedupBounds:
    """Bound the gain available in a profiling table."""
    if not table.pu_classes:
        raise SchedulingError("table has no PU columns")
    best_serial = min(
        sum(table.latency(stage, pu) for stage in application.stage_names)
        for pu in table.pu_classes
    )
    per_stage_best = [
        min(table.latency(stage, pu) for pu in table.pu_classes)
        for stage in application.stage_names
    ]
    ideal = max(
        max(per_stage_best),
        sum(per_stage_best) / len(table.pu_classes),
    )
    return SpeedupBounds(best_serial_s=best_serial, ideal_parallel_s=ideal)

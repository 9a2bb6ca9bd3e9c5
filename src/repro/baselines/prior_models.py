"""Prior-work performance-modeling flows (paper Fig. 5b / 5c, Fig. 6b).

Two comparison pipelines isolate BetterTogether's two ideas:

* :func:`latency_only_candidates` (Fig. 5b) keeps the interference-aware
  profiling table but drops the utilization (gapness) filter: the solver
  minimizes predicted latency directly.  Its top schedules may idle PUs,
  so the co-run conditions no longer match the ones the table was
  collected under.
* :func:`isolated_latency_only_candidates` (Fig. 5c) is the standard
  prior-work recipe ([3], [4], [11], [17] in the paper): profile each PU
  in isolation, compose the numbers, minimize predicted latency.  This is
  the flow whose predictions were ~57% off in the paper's motivating
  example.

Both return candidates in the optimizer's format so the evaluation can
feed them through the same measurement and correlation machinery.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.optimizer import (
    DEFAULT_K,
    BTOptimizer,
    OptimizationResult,
)
from repro.core.profiler import ISOLATED, BTProfiler, ProfilingTable
from repro.errors import ProfilingError
from repro.soc.platform import Platform
from repro.stage import Application


def latency_only_candidates(
    application: Application,
    table: ProfilingTable,
    k: int = DEFAULT_K,
) -> OptimizationResult:
    """Minimize predicted latency with NO utilization filter.

    Implemented as the BetterTogether optimizer with an infinite gapness
    slack, which makes the level-1 threshold vacuous while keeping the
    space (C1, C2) and the K-best enumeration (C5).
    """
    return BTOptimizer(
        application, table, k=k, gap_slack=math.inf,
    ).optimize()


def isolated_latency_only_candidates(
    application: Application,
    platform: Platform,
    k: int = DEFAULT_K,
    repetitions: int = 30,
    table: Optional[ProfilingTable] = None,
) -> OptimizationResult:
    """The full prior-work flow: isolated table + latency-only solve.

    Args:
        table: Pass a pre-collected *isolated* table to skip re-profiling;
            must have been collected in isolated mode.
    """
    if table is None:
        table = BTProfiler(platform, repetitions=repetitions).profile(
            application, mode=ISOLATED
        )
    elif table.mode != ISOLATED:
        raise ProfilingError(
            f"expected an isolated table, got mode {table.mode!r}"
        )
    return latency_only_candidates(
        application,
        table.restricted(platform.schedulable_classes()),
        k=k,
    )

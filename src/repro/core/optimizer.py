"""BT-Optimizer (paper section 3.3): three-level schedule optimization.

Level 1 - *Utilization*: among the schedules that satisfy C1
exactly-one-PU-per-stage, C2 contiguity and the optional C3 per-chunk
runtime bounds, minimize **gapness** ``T_max - T_min`` (objective O1).
The key insight: low-gapness schedules keep every PU busy, which
matches the co-run conditions the interference-aware profiling table
was collected under, so their predictions are trustworthy.

Level 2 - *Latency*: the ``K`` schedules of lowest predicted latency
within the gapness threshold.  The paper enumerates them by solving,
blocking the answer (constraint C5-ell) and solving again, which walks
the schedules by (latency, search position).  Candidates emerge sorted
by predicted latency and cluster into *performance tiers*.

Level 3 - *Autotuning* lives in :mod:`repro.core.autotuner`: the top
candidates are actually executed and the measured best wins.

The paper hands levels 1-2 to z3.  For a linear pipeline, though, C1 +
C2 leave only ``sum_k C(N-1, k-1) * P(M, k)`` schedules - 2 116 at the
paper's largest cell (N = 9, M = 4), 18 on a Jetson - so the formulation
is evaluated exhaustively: :func:`walk_schedules` lists the space once,
in the solver's search order, and the two or three phases of an
:meth:`BTOptimizer.optimize` call - level 1, the filtered K-best and,
when the threshold leaves fewer than K, one unfiltered top-up - read
it.  Each phase admits schedules by the rule of the K-best
branch-and-bound that searched the constraint encoding
(:func:`_k_best`), so the candidates are that search's, float for float;
the encoding itself is kept as the oracle in ``tests/core/``.  On the
worst paper-scale instance (alexnet-sparse on the Pixel 7a: N=9, M=4,
K=20) the whole call takes about 5 ms, against the paper's 50 ms for a
single z3 invocation (``benchmarks/test_solver_scalability.py`` holds
the line).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.stage import Application

#: Number of diverse candidates level 2 produces (paper: K = 20).
DEFAULT_K = 20
#: Gapness slack relative to the level-1 optimum, as a fraction of the
#: optimal T_max.  Schedules above the threshold are filtered out as
#: "underutilizing the device".
DEFAULT_GAP_SLACK = 0.10
#: Relative latency band of one performance tier (section 3.3).
TIER_TOLERANCE = 0.06

#: One schedule of the walk: its PU column per stage and its chunk
#: runtimes, in stage order.
Leaf = Tuple[Tuple[int, ...], Tuple[float, ...]]


@dataclass(frozen=True)
class ScheduleCandidate:
    """One level-2 candidate with its model predictions."""

    rank: int
    schedule: Schedule
    predicted_latency_s: float
    gapness_s: float


@dataclass
class OptimizationResult:
    """Everything BT-Optimizer produces for one (app, platform) pair."""

    application: str
    platform: str
    candidates: List[ScheduleCandidate]
    gap_threshold_s: float
    utilization_optimum: Optional[ScheduleCandidate]
    #: Phases of the search: 2 or 3 (level 1, the filtered K-best, a
    #: top-up if the filter left fewer than K).
    solver_invocations: int = 0
    #: False for every plan this optimizer makes.  Candidate logs carry
    #: it, and a log written when a search could run out of budget may
    #: hold True.
    degraded: bool = False

    @property
    def best(self) -> ScheduleCandidate:
        """The predicted-best candidate (level-2 output; level 3 may
        override it with a measured pick)."""
        if not self.candidates:
            raise SchedulingError("optimization produced no candidates")
        return self.candidates[0]

    def tiers(self) -> List[List[ScheduleCandidate]]:
        """Group candidates into performance tiers: consecutive candidates
        whose predicted latencies sit within ``TIER_TOLERANCE`` of the
        tier's first member (the clustering the paper observes in section
        3.3)."""
        tiers: List[List[ScheduleCandidate]] = []
        for candidate in self.candidates:
            if (
                tiers
                and candidate.predicted_latency_s
                <= tiers[-1][0].predicted_latency_s * (1.0 + TIER_TOLERANCE)
            ):
                tiers[-1].append(candidate)
            else:
                tiers.append([candidate])
        return tiers


def walk_schedules(latencies: Sequence[Sequence[float]]) -> List[Leaf]:
    """Every C1 + C2 schedule of a stage x PU-column latency matrix, as
    ``(assignment, chunk runtimes)``, in the solver's search order
    (stage-major, lower column first: ascending assignments).

    A schedule's chunk runtimes extend its prefix's: staying on the PU
    adds to the open chunk's running sum, moving to an unused PU closes
    it.  The additions happen in stage order from 0.0, so the floats are
    the ones the schedule's own chunk decomposition gives.
    """
    n = len(latencies)
    leaves: List[Leaf] = []

    def extend(assignment, closed, running):
        stage = len(assignment)
        if stage == n:
            leaves.append((assignment, closed + (running,)))
            return
        for pu, latency in enumerate(latencies[stage]):
            if pu == assignment[-1]:
                extend(assignment + (pu,), closed, running + latency)
            elif pu not in assignment:
                extend(assignment + (pu,), closed + (running,),
                       0.0 + latency)

    for pu, latency in enumerate(latencies[0]):
        extend((pu,), (), 0.0 + latency)
    return leaves


def _k_best(scored: Iterable[Tuple[float, int]], k: int) -> List[int]:
    """Positions of the ``k`` best ``(value, position)`` pairs, met in
    search order, by the K-best branch-and-bound's admission rule.

    A pair joins while fewer than ``k`` are held, or when its value is
    below the k-th held value less 1e-12; the held list stays in (value,
    position) order.  This is the rule of the solver's ``minimize(k)``,
    which pruned only what the rule refuses.  Under near-ties (values
    under 1e-12 apart) it is not an exact sort.
    """
    best: List[Tuple[float, int]] = []
    cutoff = math.inf
    for value, position in scored:
        if value < cutoff:
            bisect.insort(best, (value, position))
            del best[k:]
            if len(best) == k:
                cutoff = best[-1][0] - 1e-12
    return [position for _, position in best]


class BTOptimizer:
    """Levels 1 and 2 of the BetterTogether optimization.

    Args:
        application: Provides stage names/order.
        table: Profiling table (interference-aware for the real flow;
            prior-work comparisons pass an isolated table), restricted
            to the schedulable PU classes: every column is a PU.
        k: Number of candidates for level 2.
        gap_slack: Gapness threshold slack (fraction of optimal T_max).
        max_chunk_time_s / min_chunk_time_s: Optional hard per-chunk
            bounds (constraints C3a / C3b).
    """

    def __init__(
        self,
        application: Application,
        table: ProfilingTable,
        k: int = DEFAULT_K,
        gap_slack: float = DEFAULT_GAP_SLACK,
        max_chunk_time_s: Optional[float] = None,
        min_chunk_time_s: Optional[float] = None,
    ):
        if k < 1:
            raise SchedulingError("k must be >= 1")
        for kind, names in (("PU class", table.pu_classes),
                            ("stage", table.stage_names)):
            repeated = [name for index, name in enumerate(names)
                        if name in names[:index]]
            if repeated:
                raise SchedulingError(
                    f"profiling table repeats {kind} {repeated[0]!r}"
                )
        if application.num_stages != len(table.stage_names):
            raise SchedulingError(
                "profiling table does not match the application's stages"
            )
        self.application = application
        self.table = table
        self.pu_classes = tuple(table.pu_classes)
        self.k = k
        self.gap_slack = gap_slack
        self.max_chunk_time_s = max_chunk_time_s
        self.min_chunk_time_s = min_chunk_time_s
        # Dense latency matrix the walk sums.
        self._lat = [
            [table.latency(stage, pu) for pu in self.pu_classes]
            for stage in application.stage_names
        ]
        # A chunk's runtime must never shrink as stages join it.
        if any(latency < 0 for row in self._lat for latency in row):
            raise SchedulingError("profiled latencies must be >= 0")

    def _feasible(self) -> List[Tuple[Tuple[int, ...], float, float]]:
        """The walk's schedules within the C3 bounds, as ``(assignment,
        T_max, T_min)``, in search order."""
        longest_allowed = (
            math.inf if self.max_chunk_time_s is None
            else self.max_chunk_time_s
        )
        shortest_allowed = (
            -math.inf if self.min_chunk_time_s is None
            else self.min_chunk_time_s
        )
        feasible = []
        for assignment, sums in walk_schedules(self._lat):
            longest = max(sums)
            shortest = min(sums)
            if longest <= longest_allowed and shortest >= shortest_allowed:
                feasible.append((assignment, longest, shortest))
        return feasible

    def _candidate(
        self, leaf: Tuple[Tuple[int, ...], float, float]
    ) -> ScheduleCandidate:
        """Scored but not yet ranked (:meth:`_ranked` numbers a list)."""
        assignment, longest, shortest = leaf
        return ScheduleCandidate(
            rank=0,
            schedule=Schedule.from_assignments(
                [self.pu_classes[c] for c in assignment]
            ),
            predicted_latency_s=longest,
            gapness_s=longest - shortest,
        )

    @staticmethod
    def _phase(scored: Iterable[Tuple[float, int]], k: int) -> List[int]:
        """One search phase: :func:`_k_best`, counted in the metrics."""
        reg = metrics()
        if reg.enabled:
            reg.counter("solver.invocations")
        return _k_best(scored, k)

    # ------------------------------------------------------------------
    # Level 1: utilization (gapness) optimum
    # ------------------------------------------------------------------
    def optimize_utilization(self) -> ScheduleCandidate:
        """Solve ``min (T_max - T_min)`` (objective O1)."""
        return self._utilization(self._feasible())

    def _utilization(self, feasible) -> ScheduleCandidate:
        with tracer().span("solver.utilization", "solver",
                           application=self.application.name):
            found = self._phase(
                ((longest - shortest, position)
                 for position, (_, longest, shortest) in enumerate(feasible)),
                k=1,
            )
        if not found:
            raise SchedulingError(
                "no schedule satisfies the constraints (C1-C3)"
            )
        return self._candidate(feasible[found[0]])

    # ------------------------------------------------------------------
    # Level 2: latency, the K best candidates
    # ------------------------------------------------------------------
    def optimize(self) -> OptimizationResult:
        """Run levels 1 and 2; candidates sorted by predicted latency."""
        with tracer().span("solver.optimize", "solver",
                           application=self.application.name, k=self.k):
            feasible = self._feasible()
            utilization = self._utilization(feasible)
            threshold = (
                utilization.gapness_s
                + self.gap_slack * utilization.predicted_latency_s
            )
            # Phase 2a takes the K best within the utilization threshold;
            # when the filtered space holds fewer (small platforms like
            # the Jetson have only ~2(N-1)+2 contiguous schedules in
            # total), phase 2b skips what 2a took (C5-ell) and tops the
            # set up without the filter so autotuning still sees K
            # diverse options.
            # ``not >``, as the search's objective tested it: a NaN
            # threshold (infinite slack times a zero latency) filters
            # nothing.
            limit = threshold + 1e-12
            taken = self._latency_phase("filtered", [
                (longest, position)
                for position, (_, longest, shortest) in enumerate(feasible)
                if not longest - shortest > limit
            ], self.k)
            invocations = 2
            if len(taken) < self.k:
                skip = set(taken)
                taken += self._latency_phase("topup", [
                    (longest, position)
                    for position, (_, longest, _) in enumerate(feasible)
                    if position not in skip
                ], self.k - len(taken))
                invocations = 3
        # The paper sorts the candidate set by predicted latency (T_max)
        # at the end; the unfiltered top-up phase can otherwise leave a
        # low-latency, high-gapness schedule after a filtered one.
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=self._ranked(
                self._candidate(feasible[position]) for position in taken
            ),
            gap_threshold_s=threshold,
            utilization_optimum=utilization,
            solver_invocations=invocations,
        )

    def _latency_phase(self, phase: str, scored, k: int) -> List[int]:
        """One K-best phase over ``(T_max, position)`` pairs."""
        with tracer().span("solver.candidate_round", "solver", phase=phase):
            taken = self._phase(scored, k)
            tracer().annotate(found=len(taken))
        return taken

    @staticmethod
    def _ranked(candidates) -> List[ScheduleCandidate]:
        """Stable sort by (predicted latency, gapness), ranks renumbered."""
        ordered = sorted(
            candidates, key=lambda c: (c.predicted_latency_s, c.gapness_s)
        )
        return [replace(c, rank=rank) for rank, c in enumerate(ordered)]

"""BT-Optimizer (paper section 3.3): three-level schedule optimization.

Level 1 - *Utilization*: encode the assignment problem as constraints
(C1 exactly-one-PU-per-stage, C2 contiguity, optional C3 per-chunk runtime
bounds) and minimize **gapness** ``T_max - T_min`` (objective O1).  The
key insight: low-gapness schedules keep every PU busy, which matches the
co-run conditions the interference-aware profiling table was collected
under, so their predictions are trustworthy.

Level 2 - *Latency*: enumerate ``K`` diverse candidates by repeatedly
solving for minimum predicted latency among schedules within the gapness
threshold, each time blocking the previous solution (constraint C5-ell).
Candidates emerge sorted by predicted latency and cluster into
*performance tiers*.

Level 3 - *Autotuning* lives in :mod:`repro.core.autotuner`: the top
candidates are actually executed and the measured best wins.

The constraint encoding targets :mod:`repro.solver` (the z3 stand-in).
One model and one solver serve all K + 1 invocations of an
:meth:`BTOptimizer.optimize` call; on the worst paper-scale instance
(alexnet-sparse on the Pixel 7a: N=9, M=4, K=20) an invocation averages
about 18 ms, against the paper's 50 ms figure
(``benchmarks/test_solver_scalability.py`` holds the line).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule, validate_schedule
from repro.core.stage import Application
from repro.errors import SchedulingError, SolverTimeoutError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.solver import BoolVar, Model, Solver

#: Number of diverse candidates level 2 produces (paper: K = 20).
DEFAULT_K = 20
#: Gapness slack relative to the level-1 optimum, as a fraction of the
#: optimal T_max.  Schedules above the threshold are filtered out as
#: "underutilizing the device".
DEFAULT_GAP_SLACK = 0.10


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
    solver_invocations: int = 0
    solver_wall_s: float = 0.0
    #: True when the solver's wall-clock budget expired and the result
    #: degraded to the greedy best-PU schedule (no optimality claim).
    degraded: bool = False

    @property
    def best(self) -> ScheduleCandidate:
        """The predicted-best candidate (level-2 output; level 3 may
        override it with a measured pick)."""
        if not self.candidates:
            raise SchedulingError("optimization produced no candidates")
        return self.candidates[0]

    def tiers(self, tolerance: float = 0.06) -> List[List[ScheduleCandidate]]:
        """Group candidates into performance tiers: consecutive candidates
        whose predicted latencies sit within ``tolerance`` of the tier's
        first member (the clustering the paper observes in section 3.3)."""
        tiers: List[List[ScheduleCandidate]] = []
        for candidate in self.candidates:
            if (
                tiers
                and candidate.predicted_latency_s
                <= tiers[-1][0].predicted_latency_s * (1.0 + tolerance)
            ):
                tiers[-1].append(candidate)
            else:
                tiers.append([candidate])
        return tiers


class BTOptimizer:
    """Levels 1 and 2 of the BetterTogether optimization.

    Args:
        application: Provides stage names/order.
        table: Profiling table (interference-aware for the real flow;
            prior-work comparisons pass an isolated table).
        pu_classes: Schedulable PU classes (the affinity map's output);
            defaults to the table's columns.
        k: Number of candidates for level 2.
        gap_slack: Gapness threshold slack (fraction of optimal T_max).
        max_chunk_time_s / min_chunk_time_s: Optional hard per-chunk
            bounds (constraints C3a / C3b).
        time_budget_s: Optional wall-clock budget across *all* solver
            invocations of one :meth:`optimize` call.  When it expires,
            the result degrades gracefully to the greedy best-PU
            schedule (``result.degraded`` is True) instead of raising.
        max_decisions: Optional per-invocation solver decision budget,
            forwarded to :class:`repro.solver.Solver`; exhaustion
            triggers the same greedy degradation.
    """

    def __init__(
        self,
        application: Application,
        table: ProfilingTable,
        pu_classes: Optional[Sequence[str]] = None,
        k: int = DEFAULT_K,
        gap_slack: float = DEFAULT_GAP_SLACK,
        max_chunk_time_s: Optional[float] = None,
        min_chunk_time_s: Optional[float] = None,
        time_budget_s: Optional[float] = None,
        max_decisions: Optional[int] = None,
    ):
        if k < 1:
            raise SchedulingError("k must be >= 1")
        if time_budget_s is not None and time_budget_s <= 0:
            raise SchedulingError("time_budget_s must be > 0")
        self.application = application
        self.table = table
        self.pu_classes = tuple(pu_classes or table.pu_classes)
        missing = set(self.pu_classes) - set(table.pu_classes)
        if missing:
            raise SchedulingError(
                f"table has no columns for PUs {sorted(missing)}"
            )
        if application.num_stages != len(table.stage_names):
            raise SchedulingError(
                "profiling table does not match the application's stages"
            )
        self.k = k
        self.gap_slack = gap_slack
        self.max_chunk_time_s = max_chunk_time_s
        self.min_chunk_time_s = min_chunk_time_s
        self.time_budget_s = time_budget_s
        self.max_decisions = max_decisions
        self._deadline: Optional[float] = None
        # Dense latency matrix for fast objective evaluation.
        self._lat = [
            [table.latency(stage, pu) for pu in self.pu_classes]
            for stage in application.stage_names
        ]
        self.solver_invocations = 0
        self.solver_wall_s = 0.0

    def _minimize(self, solver: Solver, objective, lower_bound):
        """One solver invocation under whatever remains of the wall
        budget, accounted (and mirrored into metrics) however it ends."""
        if self._deadline is not None:
            remaining = self._deadline - time.perf_counter()
            if remaining <= 0:
                raise SolverTimeoutError(
                    f"optimization wall-clock budget exhausted "
                    f"({self.time_budget_s}s)"
                )
            solver.time_budget_s = remaining
        stats = solver.stats
        before = (stats.decisions, stats.conflicts, stats.propagations,
                  stats.wall_seconds)
        try:
            return solver.minimize(objective, lower_bound=lower_bound)
        finally:
            self.solver_invocations += 1
            self.solver_wall_s += stats.wall_seconds - before[3]
            reg = metrics()
            if reg.enabled:
                reg.counter("solver.invocations")
                reg.counter("solver.nodes", stats.decisions - before[0])
                reg.counter("solver.conflicts", stats.conflicts - before[1])
                reg.counter("solver.propagations",
                            stats.propagations - before[2])

    # ------------------------------------------------------------------
    # Constraint encoding
    # ------------------------------------------------------------------
    def _build_solver(self) -> Tuple[Solver, List[List[BoolVar]]]:
        """Encode C1 + C2 (+ optional C3) over x[i][c] booleans.

        ``x[i][c]`` is the model's variable ``i * M + c``: the solver
        branches stage-major, and a stage's row is one slice of the
        values it hands to objectives and bounds.
        """
        model = Model()
        n = self.application.num_stages
        m = len(self.pu_classes)
        x = [
            [model.new_bool(f"x_{i}_{c}") for c in range(m)]
            for i in range(n)
        ]
        # C1: exactly one PU per stage.
        for i in range(n):
            model.add_exactly_one(x[i])
        # C2: contiguity - (x[i,c] & x[k,c]) => x[j,c] for i < j < k.
        for c in range(m):
            for i in range(n):
                for k in range(i + 2, n):
                    for j in range(i + 1, k):
                        model.add_implication([x[i][c], x[k][c]], x[j][c])
        # C3a: per-chunk upper bound via pseudo-boolean sums per PU (a
        # chunk's runtime is the sum of that PU's assigned stages).
        if self.max_chunk_time_s is not None:
            for c in range(m):
                model.add_linear_le(
                    [(x[i][c], self._lat[i][c]) for i in range(n)],
                    self.max_chunk_time_s,
                )
        return Solver(model, max_decisions=self.max_decisions), x

    def _decode(self, values: Sequence[int]) -> Tuple[int, ...]:
        """Assignment (PU column index per stage) from complete solver
        values."""
        m = len(self.pu_classes)
        return tuple(
            values.index(1, base, base + m) - base
            for base in range(0, len(values), m)
        )

    def _chunk_sums(self, assignment: Tuple[int, ...]) -> List[float]:
        sums: List[float] = []
        previous = None
        for i, c in enumerate(assignment):
            if c != previous:
                sums.append(0.0)
                previous = c
            sums[-1] += self._lat[i][c]
        return sums

    def _gapness(self, assignment: Tuple[int, ...]) -> float:
        sums = self._chunk_sums(assignment)
        return max(sums) - min(sums)

    def _latency(self, assignment: Tuple[int, ...]) -> float:
        return max(self._chunk_sums(assignment))

    def _meets_chunk_bounds(self, assignment: Tuple[int, ...]) -> bool:
        sums = self._chunk_sums(assignment)
        if self.max_chunk_time_s is not None and max(sums) > self.max_chunk_time_s:
            return False
        if self.min_chunk_time_s is not None and min(sums) < self.min_chunk_time_s:
            return False
        return True

    def _to_schedule(self, assignment: Tuple[int, ...]) -> Schedule:
        return Schedule.from_assignments(
            [self.pu_classes[c] for c in assignment]
        )

    # ------------------------------------------------------------------
    # Branch-and-bound lower bounds
    #
    # The solver branches stage-major, so a partial assignment is a
    # prefix of decided stages.  Every chunk in that prefix except the
    # last is *closed*: contiguity (C2) forbids its PU from reappearing,
    # so its runtime is final.  That makes the bounds below admissible.
    # ------------------------------------------------------------------
    def _closed_chunk_sums(self, values: Sequence[int]) -> List[float]:
        """Chunk runtimes finalized by the decided prefix."""
        m = len(self.pu_classes)
        sums: List[float] = []
        previous = None
        base = 0
        try:
            for row in self._lat:
                decided = values.index(1, base, base + m) - base
                if decided != previous:
                    sums.append(0.0)
                    previous = decided
                sums[-1] += row[decided]
                base += m
        except ValueError:
            pass  # first stage without a PU yet: the prefix ends here
        if sums:
            sums.pop()  # the last prefix chunk may still grow
        return sums

    def _latency_lower_bound(self, values: Sequence[int]) -> float:
        closed = self._closed_chunk_sums(values)
        return max(closed) if closed else 0.0

    def _gapness_lower_bound(self, values: Sequence[int]) -> float:
        closed = self._closed_chunk_sums(values)
        if len(closed) < 2:
            return 0.0
        # Any completion's T_max >= max(closed) and T_min <= min(closed).
        return max(closed) - min(closed)

    # ------------------------------------------------------------------
    # Level 1: utilization (gapness) optimum
    # ------------------------------------------------------------------
    def optimize_utilization(self) -> ScheduleCandidate:
        """Solve ``min (T_max - T_min)`` (objective O1)."""
        return self._solve_utilization(self._build_solver()[0])

    def _solve_utilization(self, solver: Solver) -> ScheduleCandidate:
        def objective(values: Sequence[int]) -> float:
            assignment = self._decode(values)
            if not self._meets_chunk_bounds(assignment):
                return math.inf
            return self._gapness(assignment)

        with tracer().span("solver.utilization", "solver",
                           application=self.application.name):
            result = self._minimize(solver, objective,
                                    self._gapness_lower_bound)
        if result is None:
            raise SchedulingError("utilization optimization is infeasible")
        solution, gap = result
        if math.isinf(gap):
            raise SchedulingError(
                "no schedule satisfies the per-chunk runtime bounds (C3)"
            )
        assignment = self._decode(solution.values)
        return ScheduleCandidate(
            rank=0,
            schedule=self._to_schedule(assignment),
            predicted_latency_s=self._latency(assignment),
            gapness_s=gap,
        )

    # ------------------------------------------------------------------
    # Greedy fallback (degraded mode)
    # ------------------------------------------------------------------
    def greedy_assignment(self) -> Tuple[int, ...]:
        """Stage-major greedy best-PU schedule (no solver involved).

        Walks the stages in order; each stage either stays on the
        current chunk's PU or opens a new chunk on the fastest PU not
        used yet, whichever has the lower profiled latency for that
        stage.  Contiguity (C2) holds by construction; the per-chunk
        bounds (C3) are *not* enforced - this is the degraded answer
        when the solver budget expires, not an optimal one.
        """
        n = self.application.num_stages
        m = len(self.pu_classes)
        used: set = set()
        current: Optional[int] = None
        assignment: List[int] = []
        for i in range(n):
            options = ([current] if current is not None else []) + [
                c for c in range(m) if c not in used and c != current
            ]
            best = min(options, key=lambda c: self._lat[i][c])
            if best != current:
                if current is not None:
                    used.add(current)
                current = best
            assignment.append(best)
        return tuple(assignment)

    def _degraded_result(
        self, partial: List[ScheduleCandidate]
    ) -> OptimizationResult:
        """Greedy best-PU schedule plus whatever level 2 already found."""
        greedy = self.greedy_assignment()
        pool: Dict[Tuple[int, ...], ScheduleCandidate] = {}
        pool[greedy] = ScheduleCandidate(
            rank=0,
            schedule=self._to_schedule(greedy),
            predicted_latency_s=self._latency(greedy),
            gapness_s=self._gapness(greedy),
        )
        for candidate in partial:
            key = tuple(
                self.pu_classes.index(pu)
                for pu in candidate.schedule.assignments
            )
            pool.setdefault(key, candidate)
        candidates = sorted(
            pool.values(),
            key=lambda c: (c.predicted_latency_s, c.gapness_s),
        )
        candidates = [
            ScheduleCandidate(
                rank=rank, schedule=c.schedule,
                predicted_latency_s=c.predicted_latency_s,
                gapness_s=c.gapness_s,
            )
            for rank, c in enumerate(candidates)
        ]
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=candidates,
            gap_threshold_s=max(c.gapness_s for c in candidates),
            utilization_optimum=None,
            solver_invocations=self.solver_invocations,
            solver_wall_s=self.solver_wall_s,
            degraded=True,
        )

    # ------------------------------------------------------------------
    # Level 2: latency, K diverse candidates via blocking clauses
    # ------------------------------------------------------------------
    def optimize(self) -> OptimizationResult:
        """Run levels 1 and 2; candidates sorted by predicted latency.

        With a ``time_budget_s`` (or ``max_decisions``), budget expiry
        degrades to :meth:`greedy_assignment` instead of raising; the
        result is flagged ``degraded``.  Every produced candidate is
        validated (C1/C2/C3/availability) before it is returned.
        """
        self._deadline = (
            None if self.time_budget_s is None
            else time.perf_counter() + self.time_budget_s
        )
        partial: List[ScheduleCandidate] = []
        with tracer().span("solver.optimize", "solver",
                           application=self.application.name, k=self.k):
            try:
                result = self._optimize_exact(partial)
            except SolverTimeoutError:
                result = self._degraded_result(partial)
            finally:
                self._deadline = None
        for candidate in result.candidates:
            validate_schedule(
                candidate.schedule,
                self.application,
                table=self.table,
                available_pus=self.pu_classes,
                # The greedy fallback cannot honour the chunk bounds.
                max_chunk_time_s=(
                    None if result.degraded else self.max_chunk_time_s
                ),
                min_chunk_time_s=(
                    None if result.degraded else self.min_chunk_time_s
                ),
            )
        return result

    def _optimize_exact(
        self, partial: List[ScheduleCandidate]
    ) -> OptimizationResult:
        """The solver-backed levels 1 + 2; appends each candidate to
        ``partial`` as found so a budget expiry can salvage them."""
        # One model, one solver: level 1 never sees a blocking clause,
        # and each level-2 round compiles only the clause the previous
        # round added.
        solver, x = self._build_solver()
        utilization = self._solve_utilization(solver)
        threshold = (
            utilization.gapness_s
            + self.gap_slack * utilization.predicted_latency_s
        )

        def filtered_objective(values: Sequence[int]) -> float:
            assignment = self._decode(values)
            if not self._meets_chunk_bounds(assignment):
                return math.inf
            if self._gapness(assignment) > threshold + 1e-12:
                return math.inf
            return self._latency(assignment)

        def unfiltered_objective(values: Sequence[int]) -> float:
            assignment = self._decode(values)
            if not self._meets_chunk_bounds(assignment):
                return math.inf
            return self._latency(assignment)

        candidates = partial  # shared so budget expiry can salvage them
        # Phase 2a enumerates within the utilization threshold; when the
        # filtered space runs dry before K candidates exist (small
        # platforms like the Jetson have only ~2(N-1)+2 contiguous
        # schedules in total), phase 2b tops the set up without the
        # filter so autotuning still sees K diverse options.
        objective = filtered_objective
        trc = tracer()
        for rank in range(self.k):
            # One span per blocking-clause round: how each candidate was
            # found (filtered or top-up) and what it cost the solver.
            with trc.span("solver.candidate_round", "solver", rank=rank):
                result = self._minimize(solver, objective,
                                        self._latency_lower_bound)
                exhausted = result is None or math.isinf(result[1])
                if exhausted:
                    if objective is unfiltered_objective:
                        break  # blocking clauses exhausted the space
                    objective = unfiltered_objective
                    result = self._minimize(solver, objective,
                                            self._latency_lower_bound)
                    if result is None or math.isinf(result[1]):
                        break
                solution, latency = result
                assignment = self._decode(solution.values)
                candidates.append(
                    ScheduleCandidate(
                        rank=rank,
                        schedule=self._to_schedule(assignment),
                        predicted_latency_s=latency,
                        gapness_s=self._gapness(assignment),
                    )
                )
                # C5-ell: forbid this exact assignment.
                solver.model.forbid_assignment(
                    [x[i][c] for i, c in enumerate(assignment)]
                )
        # The paper sorts the candidate set by predicted latency (T_max)
        # at the end; the unfiltered top-up phase can otherwise leave a
        # low-latency, high-gapness schedule after a filtered one.
        candidates.sort(
            key=lambda c: (c.predicted_latency_s, c.gapness_s)
        )
        candidates = [
            ScheduleCandidate(
                rank=rank,
                schedule=c.schedule,
                predicted_latency_s=c.predicted_latency_s,
                gapness_s=c.gapness_s,
            )
            for rank, c in enumerate(candidates)
        ]
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=candidates,
            gap_threshold_s=threshold,
            utilization_optimum=utilization,
            solver_invocations=self.solver_invocations,
            solver_wall_s=self.solver_wall_s,
        )

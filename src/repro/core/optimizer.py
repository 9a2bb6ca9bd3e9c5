"""BT-Optimizer (paper section 3.3): three-level schedule optimization.

Level 1 - *Utilization*: encode the assignment problem as constraints
(C1 exactly-one-PU-per-stage, C2 contiguity, optional C3 per-chunk runtime
bounds) and minimize **gapness** ``T_max - T_min`` (objective O1).  The
key insight: low-gapness schedules keep every PU busy, which matches the
co-run conditions the interference-aware profiling table was collected
under, so their predictions are trustworthy.

Level 2 - *Latency*: the ``K`` schedules of lowest predicted latency
within the gapness threshold.  The paper enumerates them by solving,
blocking the answer (constraint C5-ell) and solving again; here one
K-best branch-and-bound returns the same list - ordered by (latency,
search position) - from a single traversal.  Candidates emerge sorted by
predicted latency and cluster into *performance tiers*.

Level 3 - *Autotuning* lives in :mod:`repro.core.autotuner`: the top
candidates are actually executed and the measured best wins.

The constraint encoding targets :mod:`repro.solver` (the z3 stand-in).
One model and one solver serve the two or three invocations of an
:meth:`BTOptimizer.optimize` call - level 1, the filtered K-best and,
when the threshold leaves fewer than K, one unfiltered top-up - where
blocking needs K + 1.  On the worst paper-scale instance (alexnet-sparse
on the Pixel 7a: N=9, M=4, K=20) the whole call takes about 17 ms,
against the paper's 50 ms for a single z3 invocation
(``benchmarks/test_solver_scalability.py`` holds the line).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

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
#: Relative latency band of one performance tier (section 3.3).
TIER_TOLERANCE = 0.06


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
    #: Solver invocations actually made: 2 or 3 for an exact plan (level
    #: 1, the filtered K-best, a top-up if the filter left fewer than K).
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
        # The search bounds rely on a chunk's runtime never shrinking as
        # stages join it.
        if any(latency < 0 for row in self._lat for latency in row):
            raise SchedulingError("profiled latencies must be >= 0")
        self.solver_invocations = 0
        self.solver_wall_s = 0.0

    def _minimize(self, solver: Solver, objective, lower_bound, k: int = 1):
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
            return solver.minimize(objective, lower_bound=lower_bound, k=k)
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

    def _objective(self, gap_threshold: Optional[float] = None):
        """Objective over complete solver values, from one pass over the
        chunk runtimes: infinite outside the C3 bounds; otherwise the
        gapness (no ``gap_threshold``: level 1), or the latency of a
        schedule whose gapness is within ``gap_threshold`` and infinite
        beyond it (level 2; ``math.inf`` filters nothing)."""
        decode = self._decode
        chunk_sums = self._chunk_sums
        shortest_allowed = (
            -math.inf if self.min_chunk_time_s is None
            else self.min_chunk_time_s
        )
        longest_allowed = (
            math.inf if self.max_chunk_time_s is None
            else self.max_chunk_time_s
        )

        def objective(values: Sequence[int]) -> float:
            sums = chunk_sums(decode(values))
            longest = max(sums)
            shortest = min(sums)
            if longest > longest_allowed or shortest < shortest_allowed:
                return math.inf
            if gap_threshold is None:
                return longest - shortest
            if longest - shortest > gap_threshold + 1e-12:
                return math.inf
            return longest

        return objective

    def _candidate(self, assignment: Tuple[int, ...]) -> ScheduleCandidate:
        """Scored but not yet ranked (:meth:`_ranked` numbers a list)."""
        sums = self._chunk_sums(assignment)
        longest = max(sums)
        return ScheduleCandidate(
            rank=0,
            schedule=self._to_schedule(assignment),
            predicted_latency_s=longest,
            gapness_s=longest - min(sums),
        )

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
    # so its runtime is final.  The last one is *open*: it can only grow
    # (latencies are non-negative), so it bounds T_max from below and
    # says nothing about T_min.  That makes the bounds below admissible.
    # ------------------------------------------------------------------
    def _prefix_chunk_sums(self, values: Sequence[int]) -> List[float]:
        """Chunk runtimes of the decided prefix, the open chunk last."""
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
        return sums

    def _latency_lower_bound(self, gap_threshold: float):
        """Bound for the level-2 objective with the same threshold: the
        longest chunk of the prefix - or infinity once the prefix alone
        has a gap beyond the threshold, as no completion brings T_max
        down or T_min up."""
        prefix_chunk_sums = self._prefix_chunk_sums

        def lower_bound(values: Sequence[int]) -> float:
            sums = prefix_chunk_sums(values)
            if not sums:
                return 0.0
            longest = max(sums)
            del sums[-1]  # the open chunk may yet outgrow T_min
            if sums and longest - min(sums) > gap_threshold + 1e-12:
                return math.inf
            return longest

        return lower_bound

    def _gapness_lower_bound(self, values: Sequence[int]) -> float:
        sums = self._prefix_chunk_sums(values)
        if len(sums) < 2:
            return 0.0
        # Any completion's T_max >= every chunk of the prefix, and its
        # T_min <= every closed one.
        longest = max(sums)
        del sums[-1]
        return longest - min(sums)

    # ------------------------------------------------------------------
    # Level 1: utilization (gapness) optimum
    # ------------------------------------------------------------------
    def optimize_utilization(self) -> ScheduleCandidate:
        """Solve ``min (T_max - T_min)`` (objective O1)."""
        return self._solve_utilization(self._build_solver()[0])

    def _solve_utilization(self, solver: Solver) -> ScheduleCandidate:
        with tracer().span("solver.utilization", "solver",
                           application=self.application.name):
            found = self._minimize(solver, self._objective(),
                                   self._gapness_lower_bound)
        if not found:
            raise SchedulingError(
                "no schedule satisfies the constraints (C1-C3)"
            )
        return self._candidate(self._decode(found[0][0].values))

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
        greedy = self._candidate(self.greedy_assignment())
        pool = {greedy.schedule.assignments: greedy}
        for candidate in partial:
            pool.setdefault(candidate.schedule.assignments, candidate)
        candidates = self._ranked(pool.values())
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
    # Level 2: latency, the K best candidates of one traversal
    # ------------------------------------------------------------------
    def optimize(self) -> OptimizationResult:
        """Run levels 1 and 2; candidates sorted by predicted latency.

        With a ``time_budget_s`` (or ``max_decisions``), budget expiry
        degrades to :meth:`greedy_assignment` instead of raising; the
        result is flagged ``degraded`` and keeps what level 2 had found
        by then.  Every produced candidate is validated
        (C1/C2/C3/availability) before it is returned.
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

    @staticmethod
    def _ranked(candidates) -> List[ScheduleCandidate]:
        """Stable sort by (predicted latency, gapness), ranks renumbered."""
        ordered = sorted(
            candidates, key=lambda c: (c.predicted_latency_s, c.gapness_s)
        )
        return [replace(c, rank=rank) for rank, c in enumerate(ordered)]

    def _latency_phase(
        self,
        solver: Solver,
        phase: str,
        gap_threshold: float,
        partial: List[ScheduleCandidate],
    ) -> None:
        """One K-best invocation for the candidates ``partial`` still
        lacks: the lowest-latency schedules within ``gap_threshold``, in
        the order the blocking loop meets them, appended to ``partial``
        - on budget expiry, the incumbents of the interrupted search."""
        pairs = ()
        with tracer().span("solver.candidate_round", "solver", phase=phase):
            try:
                pairs = self._minimize(
                    solver,
                    self._objective(gap_threshold),
                    self._latency_lower_bound(gap_threshold),
                    k=self.k - len(partial),
                )
            except SolverTimeoutError as error:
                pairs = error.incumbents
                raise
            finally:
                tracer().annotate(found=len(pairs))
                partial.extend(
                    self._candidate(self._decode(solution.values))
                    for solution, _ in pairs
                )

    def _optimize_exact(
        self, partial: List[ScheduleCandidate]
    ) -> OptimizationResult:
        """The solver-backed levels 1 + 2; appends each candidate to
        ``partial`` as found so a budget expiry can salvage them."""
        # One model, one solver: level 1 and the filtered phase see no
        # blocking clause; the top-up compiles the ones added before it.
        solver, x = self._build_solver()
        utilization = self._solve_utilization(solver)
        threshold = (
            utilization.gapness_s
            + self.gap_slack * utilization.predicted_latency_s
        )
        # Phase 2a takes the K best within the utilization threshold;
        # when the filtered space holds fewer (small platforms like the
        # Jetson have only ~2(N-1)+2 contiguous schedules in total),
        # phase 2b forbids what 2a found (C5-ell) and tops the set up
        # without the filter so autotuning still sees K diverse options.
        self._latency_phase(solver, "filtered", threshold, partial)
        if len(partial) < self.k:
            column = {pu: c for c, pu in enumerate(self.pu_classes)}
            for candidate in partial:
                solver.model.forbid_assignment([
                    x[i][column[pu]]
                    for i, pu in enumerate(candidate.schedule.assignments)
                ])
            self._latency_phase(solver, "topup", math.inf, partial)
        # The paper sorts the candidate set by predicted latency (T_max)
        # at the end; the unfiltered top-up phase can otherwise leave a
        # low-latency, high-gapness schedule after a filtered one.
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=self._ranked(partial),
            gap_threshold_s=threshold,
            utilization_optimum=utilization,
            solver_invocations=self.solver_invocations,
            solver_wall_s=self.solver_wall_s,
        )

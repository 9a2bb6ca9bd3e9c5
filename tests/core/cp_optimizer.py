"""The constraint-programming BT-Optimizer: the planner's oracle.

This is levels 1-2 as the paper poses them (section 3.3) - C1 + C2 (+
C3a) over ``x[i][c]`` booleans handed to :mod:`repro.solver`, objective
O1 and the latency objective minimized by K-best branch-and-bound,
C5-ell blocking between the filtered phase and its top-up - as it
planned before the shipped optimizer walked the contiguous schedule
space instead.  :class:`CPOptimizer` takes the shipped optimizer's
arguments and returns its :class:`OptimizationResult`; the suites hold
the two equal field for field and float for float, and
``benchmarks/`` times the two side by side.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.core.optimizer import (
    BTOptimizer,
    OptimizationResult,
    ScheduleCandidate,
    walk_schedules,
)
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.solver import BoolVar, Model, Solver


def contiguous_schedules(num_stages: int,
                         pu_classes: Sequence[str]) -> List[Schedule]:
    """Every C1 + C2 schedule of ``num_stages`` stages over
    ``pu_classes``, read off the planner's walk (search order)."""
    zeros = [[0.0] * len(pu_classes)] * num_stages
    return [
        Schedule.from_assignments([pu_classes[c] for c in assignment])
        for assignment, _ in walk_schedules(zeros)
    ]


class CPOptimizer(BTOptimizer):
    """BT-Optimizer levels 1-2 by constraint search.

    One model and one solver serve the two or three invocations of an
    :meth:`optimize` call - level 1, the filtered K-best and, when the
    threshold leaves fewer than K, one unfiltered top-up.  ``solver``
    is the last call's, for its :class:`~repro.solver.SolverStats`.
    """

    solver: Solver
    solver_invocations = 0

    def _minimize(self, solver: Solver, objective, lower_bound, k: int = 1):
        """One solver invocation, counted."""
        self.solver_invocations += 1
        return solver.minimize(objective, lower_bound=lower_bound, k=k)

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
        self.solver = Solver(model)
        return self.solver, x

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

    def _objective(self, gap_threshold=None):
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

    def _scored(self, values: Sequence[int]) -> ScheduleCandidate:
        assignment = self._decode(values)
        sums = self._chunk_sums(assignment)
        return self._candidate((assignment, max(sums), min(sums)))

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
    # Levels 1 and 2
    # ------------------------------------------------------------------
    def optimize_utilization(self) -> ScheduleCandidate:
        """Solve ``min (T_max - T_min)`` (objective O1)."""
        return self._solve_utilization(self._build_solver()[0])

    def _solve_utilization(self, solver: Solver) -> ScheduleCandidate:
        found = self._minimize(solver, self._objective(),
                               self._gapness_lower_bound)
        if not found:
            raise SchedulingError(
                "no schedule satisfies the constraints (C1-C3)"
            )
        return self._scored(found[0][0].values)

    def _latency_phase(self, solver: Solver, gap_threshold: float,
                       partial: List[ScheduleCandidate]) -> None:
        """One K-best invocation for the candidates ``partial`` still
        lacks, appended in the order the blocking loop meets them."""
        pairs = self._minimize(
            solver,
            self._objective(gap_threshold),
            self._latency_lower_bound(gap_threshold),
            k=self.k - len(partial),
        )
        partial.extend(self._scored(solution.values)
                       for solution, _ in pairs)

    def optimize(self) -> OptimizationResult:
        """Levels 1 + 2 by search; candidates sorted by predicted
        latency."""
        self.solver_invocations = 0
        # One model, one solver: level 1 and the filtered phase see no
        # blocking clause; the top-up compiles the ones added before it.
        solver, x = self._build_solver()
        utilization = self._solve_utilization(solver)
        threshold = (
            utilization.gapness_s
            + self.gap_slack * utilization.predicted_latency_s
        )
        partial: List[ScheduleCandidate] = []
        self._latency_phase(solver, threshold, partial)
        if len(partial) < self.k:
            column = {pu: c for c, pu in enumerate(self.pu_classes)}
            for candidate in partial:
                solver.model.forbid_assignment([
                    x[i][column[pu]]
                    for i, pu in enumerate(candidate.schedule.assignments)
                ])
            self._latency_phase(solver, math.inf, partial)
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=self._ranked(partial),
            gap_threshold_s=threshold,
            utilization_optimum=utilization,
            solver_invocations=self.solver_invocations,
        )

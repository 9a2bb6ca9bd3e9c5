"""Metaheuristic schedule search (a MOSCOA-style comparison baseline).

The paper's related work cites metaheuristic static schedulers (Akbari &
Rashidi's cuckoo-search MOSCOA, [2]).  This module provides a simple but
competent representative - random-restart stochastic local search over
the contiguous-schedule space - so the exact constraint-solver approach
can be compared against the metaheuristic alternative on equal terms
(same profiling table, same objective, same candidate-set interface).

Moves are schedule-space native: shift a chunk boundary by one stage,
swap two chunks' PU assignments, split a chunk onto an unused PU, or
merge two adjacent chunks.  All moves preserve contiguity (C2) by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.stage import Application

#: (boundaries, pus): boundaries are the chunk split points; pus the
#: distinct PU class per chunk, in pipeline order.
_State = Tuple[Tuple[int, ...], Tuple[str, ...]]


@dataclass
class SearchLog:
    """Bookkeeping of one search run."""

    evaluations: int = 0
    improvements: int = 0
    restarts: int = 0


class MetaheuristicOptimizer:
    """Random-restart local search over contiguous schedules.

    Args:
        application / table: Same inputs as the exact optimizer.
        pu_classes: Schedulable classes (defaults to the table's).
        restarts: Independent random starting points.
        moves_per_restart: Local-search move attempts per restart.
        seed: RNG seed.
    """

    def __init__(
        self,
        application: Application,
        table: ProfilingTable,
        pu_classes: Optional[Sequence[str]] = None,
        restarts: int = 8,
        moves_per_restart: int = 200,
        seed: int = 0,
    ):
        self.application = application
        self.table = table
        self.pu_classes = tuple(pu_classes or table.pu_classes)
        if restarts < 1 or moves_per_restart < 1:
            raise SchedulingError("restarts and moves must be >= 1")
        self.restarts = restarts
        self.moves_per_restart = moves_per_restart
        self.seed = seed
        self.log = SearchLog()
        self._lat = {
            (i, pu): table.latency(stage, pu)
            for i, stage in enumerate(application.stage_names)
            for pu in self.pu_classes
        }

    # ------------------------------------------------------------------
    # State handling
    # ------------------------------------------------------------------
    def _to_schedule(self, state: _State) -> Schedule:
        boundaries, pus = state
        assignments: List[str] = []
        bounds = (0,) + boundaries + (self.application.num_stages,)
        for chunk, pu in enumerate(pus):
            assignments.extend([pu] * (bounds[chunk + 1] - bounds[chunk]))
        return Schedule.from_assignments(assignments)

    def _latency(self, state: _State) -> float:
        self.log.evaluations += 1
        boundaries, pus = state
        bounds = (0,) + boundaries + (self.application.num_stages,)
        worst = 0.0
        for chunk, pu in enumerate(pus):
            total = sum(
                self._lat[(i, pu)]
                for i in range(bounds[chunk], bounds[chunk + 1])
            )
            worst = max(worst, total)
        return worst

    def _random_state(self, rng: np.random.Generator) -> _State:
        n = self.application.num_stages
        max_chunks = min(len(self.pu_classes), n)
        k = int(rng.integers(1, max_chunks + 1))
        boundaries = tuple(
            sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False))
        ) if k > 1 else ()
        pus = tuple(
            rng.choice(self.pu_classes, size=k, replace=False).tolist()
        )
        return boundaries, pus

    # ------------------------------------------------------------------
    # Moves (all contiguity-preserving)
    # ------------------------------------------------------------------
    def _neighbours(self, state: _State,
                    rng: np.random.Generator) -> Optional[_State]:
        boundaries, pus = state
        n = self.application.num_stages
        moves: List[Callable[[], Optional[_State]]] = []

        def shift_boundary() -> Optional[_State]:
            if not boundaries:
                return None
            index = int(rng.integers(0, len(boundaries)))
            delta = int(rng.choice([-1, 1]))
            moved = boundaries[index] + delta
            lo = boundaries[index - 1] + 1 if index > 0 else 1
            hi = (boundaries[index + 1] - 1
                  if index + 1 < len(boundaries) else n - 1)
            if not lo <= moved <= hi:
                return None
            new = list(boundaries)
            new[index] = moved
            return tuple(new), pus

        def swap_pus() -> Optional[_State]:
            if len(pus) < 2:
                return None
            i, j = rng.choice(len(pus), size=2, replace=False)
            new = list(pus)
            new[i], new[j] = new[j], new[i]
            return boundaries, tuple(new)

        def replace_pu() -> Optional[_State]:
            unused = [p for p in self.pu_classes if p not in pus]
            if not unused:
                return None
            index = int(rng.integers(0, len(pus)))
            new = list(pus)
            new[index] = unused[int(rng.integers(0, len(unused)))]
            return boundaries, tuple(new)

        def split_chunk() -> Optional[_State]:
            unused = [p for p in self.pu_classes if p not in pus]
            if not unused:
                return None
            bounds = (0,) + boundaries + (n,)
            wide = [
                c for c in range(len(pus))
                if bounds[c + 1] - bounds[c] >= 2
            ]
            if not wide:
                return None
            chunk = wide[int(rng.integers(0, len(wide)))]
            cut = int(rng.integers(bounds[chunk] + 1, bounds[chunk + 1]))
            new_boundaries = tuple(sorted(boundaries + (cut,)))
            new_pus = list(pus)
            new_pus.insert(
                chunk + 1, unused[int(rng.integers(0, len(unused)))]
            )
            return new_boundaries, tuple(new_pus)

        def merge_chunks() -> Optional[_State]:
            if len(pus) < 2:
                return None
            index = int(rng.integers(0, len(pus) - 1))
            new_boundaries = tuple(
                b for k, b in enumerate(boundaries) if k != index
            )
            new_pus = tuple(
                p for k, p in enumerate(pus) if k != index + 1
            )
            return new_boundaries, new_pus

        moves = [shift_boundary, swap_pus, replace_pu, split_chunk,
                 merge_chunks]
        move = moves[int(rng.integers(0, len(moves)))]
        return move()

    # ------------------------------------------------------------------
    def optimize(self, k: int = 1) -> OptimizationResult:
        """Search; return the best ``k`` distinct schedules found."""
        rng = np.random.default_rng(self.seed)
        seen: dict = {}
        for _ in range(self.restarts):
            self.log.restarts += 1
            state = self._random_state(rng)
            best_latency = self._latency(state)
            seen[self._to_schedule(state).assignments] = best_latency
            for _ in range(self.moves_per_restart):
                neighbour = self._neighbours(state, rng)
                if neighbour is None:
                    continue
                latency = self._latency(neighbour)
                seen.setdefault(
                    self._to_schedule(neighbour).assignments, latency
                )
                if latency < best_latency:
                    state, best_latency = neighbour, latency
                    self.log.improvements += 1
        ranked = sorted(seen.items(), key=lambda kv: kv[1])[:k]
        candidates = [
            ScheduleCandidate(
                rank=rank,
                schedule=Schedule.from_assignments(assignments),
                predicted_latency_s=latency,
                gapness_s=Schedule.from_assignments(assignments).gapness(
                    self.application, self.table
                ),
            )
            for rank, (assignments, latency) in enumerate(ranked)
        ]
        return OptimizationResult(
            application=self.application.name,
            platform=self.table.platform,
            candidates=candidates,
            gap_threshold_s=float("inf"),
            utilization_optimum=None,
        )

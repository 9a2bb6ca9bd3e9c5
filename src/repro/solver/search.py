"""DPLL-style search engine with propagation and branch-and-bound.

The engine compiles every constraint once into integer literal codes
(:attr:`repro.solver.literals.Literal.code`) and keeps a trail of the
literals made true.  Propagation drains the trail; each literal visits
only what its assignment can affect:

* clauses (C2 contiguity, C5-ell blocking) sit on **two watched
  literals** - a clause is looked at only when one of its two watches
  turns false, and backtracking never touches the watch lists;
* cardinality constraints (C1) are scanned inline over their code lists:
  a literal turning true clears its siblings, a literal of an
  exactly-one turning false looks for the last candidate left;
* every other family (the pseudo-boolean bounds, C3) is handed to its
  own ``propagate`` from a per-variable occurrence list.

Unit propagation has one fixpoint, so what is pruned - and therefore the
search tree - does not depend on the visiting order.  The engine offers:

* :meth:`Solver.solve` - first satisfying assignment (or ``None``).
* :meth:`Solver.enumerate` - lazily yield solutions (optionally bounded).
* :meth:`Solver.minimize` - K-best branch-and-bound over an objective
  evaluated on complete assignments, with an optional admissible lower bound
  over partial assignments for pruning.

All three walk the tree with the same traversal (:meth:`Solver._search`).

The design deliberately mirrors the role z3 plays in the paper: the
BetterTogether optimizer (section 3.3) pushes constraints C1-C5 and objective
O1, asks for an optimum, then repeatedly blocks solutions (C5-ell) to
enumerate the K = 20 diverse candidates - K + 1 solves that each start from
the empty assignment.  Blocking the optimum and solving again walks the
leaves in (value, search position) order, so ``minimize(k=K)`` returns that
very list from one traversal by holding K incumbents instead of one.  Like
an incremental SMT context, one solver still serves several calls:
constraints the model gained since the previous entry-point call (blocking
clauses at a phase boundary, say) are compiled on the next one; nothing
else - learned clauses, bounds, incumbents - carries over between calls.
"""

from __future__ import annotations

import bisect
import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import SolverTimeoutError
from repro.solver.constraints import (
    UNASSIGNED,
    Clause,
    Constraint,
    ExactlyOne,
)
from repro.solver.model import Model, Solution

# Objective over a complete assignment (variable values indexed by var index).
ObjectiveFn = Callable[[Sequence[int]], float]
# Admissible lower bound over a partial assignment; must never exceed the
# objective of any completion.  Entries may be UNASSIGNED.
LowerBoundFn = Callable[[Sequence[int]], float]


class SolverStats:
    """Counters of one solver, accumulated over its entry-point calls.

    ``propagations`` counts constraint visits: one per clause whose watch
    turned false, per cardinality scan and per ``propagate`` call.
    """

    def __init__(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.solutions = 0
        self.wall_seconds = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SolverStats(decisions={self.decisions}, "
            f"propagations={self.propagations}, conflicts={self.conflicts}, "
            f"solutions={self.solutions}, wall={self.wall_seconds:.4f}s)"
        )


class Solver:
    """Search engine over a :class:`repro.solver.model.Model`.

    One solver runs one search at a time (the watch lists follow the
    current assignment), but may run any number one after another.
    """

    def __init__(self, model: Model, max_decisions: Optional[int] = None,
                 time_budget_s: Optional[float] = None):
        """Compile ``model``'s constraints.

        Clauses get their first two literals watched, cardinality
        constraints are indexed by the literals that trigger a scan, and
        the remaining families by the variables they mention.
        ``max_decisions`` and ``time_budget_s`` bound each entry-point
        call separately.
        """
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValueError("time_budget_s must be > 0")
        self.model = model
        self.max_decisions = max_decisions
        self.time_budget_s = time_budget_s
        self._deadline: Optional[float] = None
        self._decision_limit: Optional[int] = None
        self.stats = SolverStats()
        # The assignment twice over: per variable (what objectives and
        # bounds read) and per literal code (1 true, 0 false - what
        # propagation reads).
        self._values: List[int] = []
        self._truth: List[int] = []
        # Literal codes made true, in assignment order.
        self._trail: List[int] = []
        # Per literal code: the clauses (code lists, watches at [0] and
        # [1]) to look at when it turns false; the exactly-one code lists
        # to clear when it turns true, and those that may have lost their
        # last candidate when it turns false.
        self._watches: List[List[List[int]]] = []
        self._siblings: List[List[List[int]]] = []
        self._candidates: List[List[List[int]]] = []
        # Per variable: constraints of the uncompiled families.
        self._occurrences: List[List[Constraint]] = []
        # What can fire under the empty assignment: literals forced by
        # one-literal clauses / exactly-ones, and the uncompiled families.
        self._root_codes: List[int] = []
        self._root_constraints: List[Constraint] = []
        self._by_name: Dict[str, int] = {}
        self._compiled = 0
        self._sync()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Compile what the model gained since the previous call."""
        grown = self.model.num_variables - len(self._occurrences)
        if grown:
            self._occurrences.extend([] for _ in range(grown))
            for table in (self._watches, self._siblings, self._candidates):
                table.extend([] for _ in range(2 * grown))
            self._by_name = {
                var.name: var.index for var in self.model.variables
            }
        constraints = self.model.constraints
        for constraint in constraints[self._compiled:]:
            self._compile(constraint)
        self._compiled = len(constraints)

    def _compile(self, constraint: Constraint) -> None:
        if isinstance(constraint, Clause):
            # Distinct literals, first-seen order: ``x | x`` is the unit x.
            codes = list(dict.fromkeys(
                lit.code for lit in constraint.literals
            ))
            if any(code ^ 1 in codes for code in codes):
                return  # ``x | ~x``: always satisfied
            if len(codes) == 1:
                self._root_codes.append(codes[0])
            else:
                self._watches[codes[0]].append(codes)
                self._watches[codes[1]].append(codes)
        elif isinstance(constraint, ExactlyOne):
            codes = [lit.code for lit in constraint.literals]
            if len(codes) == 1:
                self._root_codes.append(codes[0])
            for code in dict.fromkeys(codes):
                self._siblings[code].append(codes)
                self._candidates[code].append(codes)
        else:
            self._root_constraints.append(constraint)
            for index in dict.fromkeys(
                var.index for var in constraint.variables()
            ):
                self._occurrences[index].append(constraint)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _conflict(self, visits: int) -> bool:
        self.stats.propagations += visits
        self.stats.conflicts += 1
        return False

    def _apply(self, constraint: Constraint) -> bool:
        """Run one uncompiled constraint; False when it (or a literal it
        forces) contradicts the assignment."""
        consistent, forced = constraint.propagate(self._values)
        if not consistent:
            return False
        for index, value in forced:
            if not self._assign(2 * index + value):
                return False
        return True

    def _assign(self, code: int) -> bool:
        """Make a literal true unless it already is; False if it is
        false."""
        state = self._truth[code]
        if state == UNASSIGNED:
            self._truth[code] = 1
            self._truth[code ^ 1] = 0
            self._values[code >> 1] = code & 1
            self._trail.append(code)
        return state != 0

    def _propagate(self, head: int) -> bool:
        """Fixpoint propagation of ``trail[head:]``.

        Forced literals are appended to the trail (so the caller can
        undo them) and propagated in turn.  This loop is where a solve
        spends its time, so it writes assignments out inline rather than
        calling :meth:`_assign`.

        Returns:
            False on conflict, True otherwise.
        """
        values = self._values
        truth = self._truth
        trail = self._trail
        watches = self._watches
        siblings = self._siblings
        candidates = self._candidates
        occurrences = self._occurrences
        visits = 0
        while head < len(trail):
            true_code = trail[head]
            head += 1
            false_code = true_code ^ 1
            watching = watches[false_code]
            if watching:
                visits += len(watching)
                keep = []
                watches[false_code] = keep
                pending = iter(watching)
                for clause in pending:
                    other = clause[0]
                    if other == false_code:
                        other = clause[1]
                        clause[0] = other
                        clause[1] = false_code
                    state = truth[other]
                    if state > 0:
                        keep.append(clause)  # satisfied by its other watch
                        continue
                    for k in range(2, len(clause)):
                        code = clause[k]
                        if truth[code]:
                            # Not false: watch it instead.
                            clause[1] = code
                            clause[k] = false_code
                            watches[code].append(clause)
                            break
                    else:
                        keep.append(clause)
                        if state:  # unit
                            truth[other] = 1
                            truth[other ^ 1] = 0
                            values[other >> 1] = other & 1
                            trail.append(other)
                        else:  # every literal false
                            unvisited = list(pending)
                            keep.extend(unvisited)
                            return self._conflict(visits - len(unvisited))
            for codes in siblings[true_code]:
                visits += 1
                true_count = 0
                for code in codes:
                    state = truth[code]
                    if state < 0:
                        truth[code] = 0
                        truth[code ^ 1] = 1
                        values[code >> 1] = (code & 1) ^ 1
                        trail.append(code ^ 1)
                    else:
                        true_count += state
                if true_count > 1:
                    return self._conflict(visits)
            for codes in candidates[false_code]:
                visits += 1
                last = -1
                for code in codes:
                    state = truth[code]
                    if state < 0:
                        if last >= 0:
                            break  # two candidates left: nothing to infer
                        last = code
                    elif state:
                        break  # already has its one
                else:
                    if last < 0:
                        return self._conflict(visits)
                    truth[last] = 1
                    truth[last ^ 1] = 0
                    values[last >> 1] = last & 1
                    trail.append(last)
            for constraint in occurrences[true_code >> 1]:
                visits += 1
                if not self._apply(constraint):
                    return self._conflict(visits)
        self.stats.propagations += visits
        return True

    def _start(self) -> bool:
        """Open one entry-point call: arm its budgets, pick up new
        constraints, and propagate from the empty assignment.

        Returns:
            False when the model is infeasible at the root.
        """
        self._deadline = (
            None if self.time_budget_s is None
            else time.perf_counter() + self.time_budget_s
        )
        self._decision_limit = (
            None if self.max_decisions is None
            else self.stats.decisions + self.max_decisions
        )
        self._sync()
        self._values = [UNASSIGNED] * self.model.num_variables
        self._truth = [UNASSIGNED] * (2 * self.model.num_variables)
        self._trail = []
        visits = len(self._root_codes) + len(self._root_constraints)
        for code in self._root_codes:
            if not self._assign(code):
                return self._conflict(visits)
        for constraint in self._root_constraints:
            if not self._apply(constraint):
                return self._conflict(visits)
        self.stats.propagations += visits
        return self._propagate(0)

    def _decide(self, index: int, value: int) -> bool:
        """Assign an unassigned variable and propagate; False on conflict."""
        mark = len(self._trail)
        self._assign(2 * index + value)
        return self._propagate(mark)

    def _undo(self, mark: int) -> None:
        """Retract every assignment made since the trail had ``mark``
        entries."""
        values = self._values
        truth = self._truth
        trail = self._trail
        for code in trail[mark:]:
            values[code >> 1] = truth[code] = truth[code ^ 1] = UNASSIGNED
        del trail[mark:]

    def _check_budget(self) -> None:
        if (
            self._decision_limit is not None
            and self.stats.decisions > self._decision_limit
        ):
            raise SolverTimeoutError(
                f"decision budget exhausted ({self.max_decisions})"
            )
        if (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            raise SolverTimeoutError(
                f"wall-clock budget exhausted ({self.time_budget_s}s)"
            )

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def solve(self) -> Optional[Solution]:
        """Return the first satisfying assignment, or ``None``."""
        for solution in self.enumerate(limit=1):
            return solution
        return None

    def enumerate(self, limit: Optional[int] = None) -> Iterator[Solution]:
        """Yield satisfying assignments.

        Solutions are produced in deterministic DFS order (variables branched
        in index order, value 1 tried before 0).
        """
        start = time.perf_counter()
        try:
            if not self._start():
                return
            emitted = 0
            for values in self._search():
                self.stats.solutions += 1
                yield Solution(values, self._by_name)
                emitted += 1
                if limit is not None and emitted >= limit:
                    break
        finally:
            self.stats.wall_seconds += time.perf_counter() - start

    def _search(
        self, prune: Optional[Callable[[Sequence[int]], bool]] = None
    ) -> Iterator[List[int]]:
        """The one traversal: yield the live assignment at every leaf.

        Depth-first from the current (root) fixpoint, variables in index
        order, 1 before 0.  ``prune`` is asked at every node, leaves
        included; True skips the node's subtree.  Every variable below
        the one a node branches on is assigned, so its children resume
        the scan just past it.
        """
        values = self._values
        trail = self._trail
        stats = self.stats
        root = len(trail)
        # Branches still to take, deepest last: (variable, value, trail
        # length of the node they leave from).
        pending: List[Tuple[int, int, int]] = []
        scan_from = 0
        consistent = True
        while True:
            if consistent and not (prune is not None and prune(values)):
                try:
                    branch_var = values.index(UNASSIGNED, scan_from)
                except ValueError:
                    yield values
                else:
                    mark = len(trail)
                    pending.append((branch_var, 0, mark))
                    pending.append((branch_var, 1, mark))
            if not pending:
                break
            branch_var, choice, mark = pending.pop()
            self._undo(mark)
            stats.decisions += 1
            self._check_budget()
            consistent = self._decide(branch_var, choice)
            scan_from = branch_var + 1
        self._undo(root)

    def minimize(
        self,
        objective: ObjectiveFn,
        lower_bound: Optional[LowerBoundFn] = None,
        k: int = 1,
    ) -> List[Tuple[Solution, float]]:
        """The ``k`` assignments of lowest finite ``objective``.

        K-best branch-and-bound in one traversal: the incumbents are the
        ``k`` best leaves seen so far, ordered by (value, DFS position) -
        the list that ``k`` rounds of "minimize, then block the answer"
        would produce.  A subtree is pruned when ``lower_bound`` on its
        partial assignment is infinite or, with ``k`` incumbents held,
        not better than the worst of them.  Without a lower bound this
        degrades to exhaustive search over satisfying assignments; with
        the optimizer's bounds a whole K = 20 plan of the worst
        paper-scale instance (N = 9, M = 4; three calls) takes about
        17 ms, against the paper's 50 ms for one of its K + 1 z3 calls.

        Returns:
            ``(solution, value)`` pairs, best first: fewer than ``k``
            when fewer assignments have a finite objective, none when
            the model is infeasible.

        Raises:
            SolverTimeoutError: a budget ran out; ``incumbents`` on the
                error holds the pairs found so far.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        start = time.perf_counter()
        stats = self.stats
        # (value, DFS position, assignment), ascending; positions are
        # unique, so the assignments themselves are never compared.
        best: List[Tuple[float, int, List[int]]] = []
        # What a leaf must beat (and a bound must stay under) to matter.
        cutoff = math.inf

        def incumbents() -> List[Tuple[Solution, float]]:
            return [(Solution(values, self._by_name), value)
                    for value, _, values in best]

        try:
            if not self._start():
                return []
            prune = None
            if lower_bound is not None:
                prune = lambda values: lower_bound(values) >= cutoff  # noqa: E731
            for values in self._search(prune):
                value = objective(values)
                if value < cutoff:
                    bisect.insort(best, (value, stats.solutions, values[:]))
                    stats.solutions += 1
                    del best[k:]
                    if len(best) == k:
                        cutoff = best[-1][0] - 1e-12
            return incumbents()
        except SolverTimeoutError as error:
            error.incumbents = incumbents()
            raise
        finally:
            stats.wall_seconds += time.perf_counter() - start

"""Constraint classes: what each family means, and how it propagates.

The search engine (:mod:`repro.solver.search`) keeps a partial assignment
(``values[i]`` is 0, 1, or ``UNASSIGNED``).  Every constraint says which
variables it mentions and whether a *complete* assignment satisfies it
(``satisfied_by`` - the semantics the test oracles brute-force).  How it
prunes a partial assignment depends on the family:

* :class:`Clause` - disjunction of literals: the contiguity implications
  (C2) and the blocking clauses (C5-ell).  The engine compiles clauses to
  integer literal codes and propagates them with two watched literals.
* :class:`ExactlyOne` - cardinality over literals (C1: one PU per
  stage).  Compiled too; the engine scans their code lists inline.
* :class:`LinearLE` - the pseudo-boolean inequality
  ``sum(w_i * lit_i) <= bound`` for the per-chunk runtime bound (C3a;
  C3b is enforced in the objective).  It implements ``propagate`` -
  report a conflict, infer forced literals, or do nothing - and the
  engine calls it whenever one of its variables is assigned.  Any
  further family plugs in the same way.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import ModellingError
from repro.solver.literals import BoolVar, Literal, as_literal

UNASSIGNED = -1


class Constraint:
    """Base class for all constraints."""

    def variables(self) -> List[BoolVar]:
        """All variables mentioned by the constraint."""
        raise NotImplementedError

    def propagate(self, values: List[int]) -> Tuple[bool, List[Tuple[int, int]]]:
        """Inspect a partial assignment.

        The engine never calls this on the families it compiles
        (:class:`Clause`, :class:`ExactlyOne`), so
        those do not implement it; every other family must.

        Args:
            values: Per-variable values, ``UNASSIGNED``/0/1, indexed by
                variable index.

        Returns:
            ``(consistent, forced)`` where ``forced`` is a list of
            ``(var_index, value)`` pairs implied by the constraint.  When
            ``consistent`` is False the constraint is violated and ``forced``
            is empty.
        """
        raise NotImplementedError

    def satisfied_by(self, values: Sequence[int]) -> bool:
        """Whether a *complete* assignment satisfies the constraint."""
        raise NotImplementedError


def _literal_state(lit: Literal, values: Sequence[int]) -> int:
    """Return 1 if the literal is true, 0 if false, UNASSIGNED otherwise."""
    value = values[lit.var.index]
    if value == UNASSIGNED:
        return UNASSIGNED
    return 1 if lit.value_under(value) else 0


def _forcing_value(lit: Literal, make_true: bool) -> int:
    """The variable value that makes ``lit`` evaluate to ``make_true``."""
    if make_true:
        return 0 if lit.negated else 1
    return 1 if lit.negated else 0


class Clause(Constraint):
    """Disjunction of literals: at least one literal must be true."""

    def __init__(self, literals: Iterable["BoolVar | Literal"]):
        self.literals = [as_literal(item) for item in literals]
        if not self.literals:
            raise ModellingError("a clause needs at least one literal")

    def variables(self) -> List[BoolVar]:
        return [lit.var for lit in self.literals]

    def satisfied_by(self, values: Sequence[int]) -> bool:
        return any(_literal_state(lit, values) == 1 for lit in self.literals)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "Clause(" + " | ".join(map(repr, self.literals)) + ")"


class ExactlyOne(Constraint):
    """Exactly one of the given literals must be true (C1)."""

    def __init__(self, literals: Iterable["BoolVar | Literal"]):
        self.literals = [as_literal(item) for item in literals]
        if not self.literals:
            raise ModellingError("exactly-one needs at least one literal")

    def variables(self) -> List[BoolVar]:
        return [lit.var for lit in self.literals]

    def satisfied_by(self, values: Sequence[int]) -> bool:
        return sum(_literal_state(lit, values) == 1 for lit in self.literals) == 1


class LinearLE(Constraint):
    """Pseudo-boolean inequality ``sum(weight_i * [lit_i is true]) <= bound``.

    Weights must be non-negative; inequalities with negative weights can be
    rewritten by negating the corresponding literal and shifting the bound.
    """

    def __init__(
        self,
        terms: Iterable[Tuple["BoolVar | Literal", float]],
        bound: float,
    ):
        self.terms: List[Tuple[Literal, float]] = []
        for item, weight in terms:
            if weight < 0:
                raise ModellingError(
                    "LinearLE weights must be non-negative; negate the "
                    "literal and shift the bound instead"
                )
            self.terms.append((as_literal(item), float(weight)))
        self.bound = float(bound)

    def variables(self) -> List[BoolVar]:
        return [lit.var for lit, _ in self.terms]

    def propagate(self, values: List[int]) -> Tuple[bool, List[Tuple[int, int]]]:
        committed = 0.0
        pending: List[Tuple[Literal, float]] = []
        for lit, weight in self.terms:
            state = _literal_state(lit, values)
            if state == 1:
                committed += weight
            elif state == UNASSIGNED:
                pending.append((lit, weight))
        if committed > self.bound + 1e-12:
            return False, []
        slack = self.bound - committed
        forced = [
            (lit.var.index, _forcing_value(lit, False))
            for lit, weight in pending
            if weight > slack + 1e-12
        ]
        return True, forced

    def satisfied_by(self, values: Sequence[int]) -> bool:
        total = sum(
            weight
            for lit, weight in self.terms
            if _literal_state(lit, values) == 1
        )
        return total <= self.bound + 1e-12

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        body = " + ".join(f"{w}*{lit!r}" for lit, w in self.terms)
        return f"LinearLE({body} <= {self.bound})"


def implication(antecedents: Iterable["BoolVar | Literal"],
                consequent: "BoolVar | Literal") -> Clause:
    """Compile ``(a1 & a2 & ...) => c`` to its clause form.

    This is how the contiguity constraint (C2) is expressed:
    ``(x[i,c] & x[k,c]) => x[j,c]`` becomes
    ``~x[i,c] | ~x[k,c] | x[j,c]``.
    """
    literals = [~as_literal(a) for a in antecedents]
    literals.append(as_literal(consequent))
    return Clause(literals)

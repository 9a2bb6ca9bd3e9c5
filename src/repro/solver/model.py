"""Declarative constraint model, mirroring the slice of the z3 API the
paper's formulation needs (section 3.3).

Typical use::

    model = Model()
    x = {(i, c): model.new_bool(f"x_{i}_{c}") for i in stages for c in pus}
    for i in stages:
        model.add_exactly_one([x[i, c] for c in pus])
    ...
    solution = Solver(model).solve()

The model is purely declarative; solving lives in
:mod:`repro.solver.search`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import ModellingError
from repro.solver.constraints import (
    Clause,
    Constraint,
    ExactlyOne,
    LinearLE,
    implication,
)
from repro.solver.literals import BoolVar, Literal, as_literal


class Solution:
    """A complete satisfying assignment.

    Supports lookup by :class:`BoolVar` or by variable name.

    Args:
        values: 0/1 per variable, indexed by variable index (copied).
        by_name: Variable name -> index; shared with the solver that
            produced the solution, never written.
    """

    def __init__(self, values: Sequence[int], by_name: Mapping[str, int]):
        self._values = tuple(values)
        self._by_name = by_name

    @property
    def values(self) -> Tuple[int, ...]:
        """0/1 per variable, indexed by variable index - the shape
        objective callbacks see."""
        return self._values

    def value(self, var: "BoolVar | str") -> bool:
        """The boolean value assigned to ``var`` (a variable or its name)."""
        if isinstance(var, BoolVar):
            return bool(self._values[var.index])
        if isinstance(var, str):
            return bool(self._values[self._by_name[var]])
        raise TypeError(f"expected BoolVar or str, got {type(var).__name__}")

    def __getitem__(self, var: "BoolVar | str") -> bool:
        return self.value(var)

    def true_variables(self) -> List[str]:
        """Names of all variables assigned true, sorted."""
        return sorted(
            name for name, index in self._by_name.items() if self._values[index]
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Solution({self.true_variables()})"


class Model:
    """A set of boolean variables plus constraints over them."""

    def __init__(self) -> None:
        self._variables: List[BoolVar] = []
        self._by_name: Dict[str, int] = {}
        self._constraints: List[Constraint] = []

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def new_bool(self, name: str) -> BoolVar:
        """Create a fresh boolean variable with a unique name."""
        if name in self._by_name:
            raise ModellingError(f"duplicate variable name: {name!r}")
        var = BoolVar(index=len(self._variables), name=name)
        self._variables.append(var)
        self._by_name[name] = var.index
        return var

    def variable(self, name: str) -> BoolVar:
        """Look up an existing variable by name."""
        try:
            return self._variables[self._by_name[name]]
        except KeyError:
            raise ModellingError(f"unknown variable: {name!r}") from None

    @property
    def variables(self) -> Sequence[BoolVar]:
        return tuple(self._variables)

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> Sequence[Constraint]:
        return tuple(self._constraints)

    def _check_owned(self, constraint: Constraint) -> None:
        for var in constraint.variables():
            if (
                var.index >= len(self._variables)
                or self._variables[var.index] is not var
            ):
                raise ModellingError(
                    f"variable {var.name!r} does not belong to this model"
                )

    def add(self, constraint: Constraint) -> Constraint:
        """Add an already-built constraint object."""
        self._check_owned(constraint)
        self._constraints.append(constraint)
        return constraint

    def add_clause(self, literals: Iterable["BoolVar | Literal"]) -> Constraint:
        """At least one of ``literals`` must hold."""
        return self.add(Clause(literals))

    def add_exactly_one(
        self, literals: Iterable["BoolVar | Literal"]
    ) -> Constraint:
        """Exactly one of ``literals`` must hold (constraint C1)."""
        return self.add(ExactlyOne(literals))

    def add_implication(
        self,
        antecedents: Iterable["BoolVar | Literal"],
        consequent: "BoolVar | Literal",
    ) -> Constraint:
        """``(a1 & a2 & ...) => c`` (constraint C2 shape)."""
        return self.add(implication(antecedents, consequent))

    def add_linear_le(
        self,
        terms: Iterable[Tuple["BoolVar | Literal", float]],
        bound: float,
    ) -> Constraint:
        """``sum(w_i * lit_i) <= bound`` (C3a / blocking clauses C5)."""
        return self.add(LinearLE(terms, bound))

    def forbid_assignment(
        self, true_literals: Iterable["BoolVar | Literal"]
    ) -> Constraint:
        """Block a previously found solution (constraint C5-ell).

        Given the literals that were true in a solution, adds the clause
        requiring at least one of them to flip - exactly the paper's
        ``sum_i x_{i, sigma_i} <= |N| - 1`` encoding.
        """
        literals = [~as_literal(item) for item in true_literals]
        if not literals:
            raise ModellingError("cannot forbid the empty assignment")
        return self.add(Clause(literals))

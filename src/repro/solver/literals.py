"""Boolean variables and literals for the constraint solver.

The solver works on boolean decision variables.  A :class:`Literal` is a
variable or its negation; constraints are expressed over literals.  Variables
are created through :meth:`repro.solver.model.Model.new_bool`, which assigns
each one a dense integer index used by the search engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BoolVar:
    """A named boolean decision variable.

    Attributes:
        index: Dense index assigned by the owning model; used by the engine.
        name: Human-readable name, useful in debugging and blocking clauses.
    """

    index: int
    name: str

    def __invert__(self) -> "Literal":
        return Literal(self, negated=True)

    def literal(self) -> "Literal":
        """Return the positive literal for this variable."""
        return Literal(self, negated=False)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BoolVar({self.name})"


@dataclass(frozen=True)
class Literal:
    """A boolean variable or its negation."""

    var: BoolVar
    negated: bool = False

    def __invert__(self) -> "Literal":
        return Literal(self.var, negated=not self.negated)

    def value_under(self, assignment: int) -> bool:
        """Evaluate this literal given the variable's assigned value.

        Args:
            assignment: 0 or 1, the value of ``self.var``.
        """
        truth = bool(assignment)
        return (not truth) if self.negated else truth

    @property
    def code(self) -> int:
        """Integer form the search engine propagates on:
        ``2 * var.index + v``, ``v`` being the variable value that makes
        the literal true - so ``code ^ 1`` is the negation, ``code >> 1``
        the variable and ``code & 1`` the satisfying value."""
        return 2 * self.var.index + (0 if self.negated else 1)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        prefix = "~" if self.negated else ""
        return f"{prefix}{self.var.name}"


def as_literal(item: "BoolVar | Literal") -> Literal:
    """Coerce a variable or literal into a :class:`Literal`."""
    if isinstance(item, BoolVar):
        return item.literal()
    if isinstance(item, Literal):
        return item
    raise TypeError(f"expected BoolVar or Literal, got {type(item).__name__}")

"""A small constraint-programming solver.

This package stands in for the z3 SMT solver used by the paper's
BT-Optimizer (section 3.3).  It supports the exact constraint shapes of the
BetterTogether formulation - exactly-one (C1), implications (C2),
pseudo-boolean bounds (C3a/C3b, C5), and objective minimization (O1) via
branch-and-bound - behind a declarative :class:`Model` API.
"""

from repro.solver.constraints import (
    UNASSIGNED,
    Clause,
    Constraint,
    ExactlyOne,
    LinearLE,
    implication,
)
from repro.solver.literals import BoolVar, Literal, as_literal
from repro.solver.model import Model, Solution
from repro.solver.search import Solver, SolverStats

__all__ = [
    "UNASSIGNED",
    "BoolVar",
    "Clause",
    "Constraint",
    "ExactlyOne",
    "LinearLE",
    "Literal",
    "Model",
    "Solution",
    "Solver",
    "SolverStats",
    "as_literal",
    "implication",
]

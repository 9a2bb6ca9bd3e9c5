"""Statistics used throughout the evaluation (paper section 5).

Pearson correlation between predicted and measured latencies (Fig. 6),
geometric-mean speedups (Fig. 4), and small table-formatting helpers.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

from repro.errors import ReproError


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r between two equal-length samples.

    Raises for degenerate inputs (length < 2 or zero variance) rather
    than silently returning NaN - a correlation heatmap with silent NaNs
    would misreport the model comparison.
    """
    if len(xs) != len(ys):
        raise ReproError("correlation inputs must have equal length")
    n = len(xs)
    if n < 2:
        raise ReproError("correlation needs at least two points")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x <= 0 or var_y <= 0:
        raise ReproError("correlation undefined for constant samples")
    return cov / math.sqrt(var_x * var_y)


def safe_pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's r, with degenerate samples mapped to 0.0.

    Used by the experiment drivers at reduced scales: a candidate set
    whose predictions are all identical (a single performance tier) has
    no ranking power, which 0.0 expresses; the strict
    :func:`pearson_correlation` would raise instead.
    """
    try:
        return pearson_correlation(xs, ys)
    except ReproError:
        return 0.0


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values (Fig. 4's summary statistic)."""
    items: List[float] = list(values)
    if not items:
        raise ReproError("geometric mean of nothing")
    if any(v <= 0 for v in items):
        raise ReproError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def speedup(baseline_s: float, measured_s: float) -> float:
    """Baseline-over-measured ratio; > 1 means ``measured`` is faster."""
    if baseline_s <= 0 or measured_s <= 0:
        raise ReproError("speedup needs positive latencies")
    return baseline_s / measured_s


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average (Fig. 6 aggregates correlations arithmetically)."""
    items = list(values)
    if not items:
        raise ReproError("mean of nothing")
    return sum(items) / len(items)


def format_table(rows: Sequence[Sequence[str]]) -> str:
    """Monospace-align a list-of-rows table for terminal output: the
    first column left-aligned, the rest right-aligned."""
    if not rows:
        return ""
    widths = [
        max(len(str(row[col])) for row in rows)
        for col in range(len(rows[0]))
    ]
    lines = []
    for row in rows:
        cells = []
        for col, cell in enumerate(row):
            text = str(cell)
            if col:
                cells.append(text.rjust(widths[col]))
            else:
                cells.append(text.ljust(widths[col]))
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)

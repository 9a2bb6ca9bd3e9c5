"""Deterministic serving metrics: the summaries every report quotes.

Everything here is pure arithmetic over recorded window measurements -
no wall clock, no RNG - so a report built from them (the fleet's, the
traffic layer's) is byte-identical across repeats with the same seed.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, List, Sequence

from repro.errors import ServeError
from repro.obs.metrics import percentile  # also this layer's export
from repro.serve.tenant import WindowSample


def attainment(samples: Sequence[WindowSample], slo: float) -> float:
    """Fraction of windows meeting a slowdown SLO, in [0, 1]
    (:meth:`WindowSample.attains` is the predicate).

    Raises on an empty sample set (a tenant with no served windows has
    no attainment, and silently reporting 0.0 or 1.0 would each mislead
    in a different direction) and on a non-positive threshold.
    """
    if not samples:
        raise ServeError("attainment of an empty sample set")
    if slo <= 0.0:
        raise ServeError(f"SLO threshold must be positive, got {slo}")
    return sum(1 for sample in samples if sample.attains(slo)) / len(samples)


def per_task(rows: Iterable[WindowSample],
             value: Callable[[WindowSample], float]) -> List[float]:
    """The per-task population of a window statistic: ``value(row)``
    once for every task the window streamed (the p95 population).

    Replicated here, when a report asks, so that nothing holds
    ``window_tasks`` floats per served window for the length of a run.
    """
    out: List[float] = []
    for row in rows:
        out.extend([value(row)] * row.window_tasks)
    return out


def rendered(value: float, served: int) -> object:
    """A summary statistic as reports serialise it: nothing served
    means no distribution, and 0.0 would read as "infinitely fast", so
    the serialised form says "n/a" (the attributes stay numeric)."""
    return round(value, 9) if served else "n/a"


class Distribution:
    """Mean, maximum and percentiles of one sample population - the
    summary every report layer quotes; 0.0 for an empty population.

    ``population`` builds the samples, when a statistic is first read:
    a fleet closes a server generation per crash and a tenant row per
    arrival, and most of those summaries are never looked at.  The rows
    behind a closed server or fleet no longer change; summarise an open
    one right away.
    """

    def __init__(self, population: Callable[[], Sequence[float]]):
        self._population = population

    @cached_property
    def samples(self) -> Sequence[float]:
        """The population, in the order it was recorded."""
        return self._population()

    @property
    def mean(self) -> float:
        """Arithmetic mean, summed in recording order."""
        samples = self.samples
        return sum(samples) / len(samples) if samples else 0.0

    @property
    def max(self) -> float:
        """The largest sample."""
        return max(self.samples, default=0.0)

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile (:func:`percentile`)."""
        return percentile(self.samples, q) if self.samples else 0.0

"""Deterministic serving metrics and the final serve report.

Everything here is pure arithmetic over recorded window measurements -
no wall clock, no RNG - so a serve run's report is byte-identical
across repeats with the same seed (the acceptance property the soak
test asserts by comparing serialized reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence,
)

from repro.errors import ServeError
from repro.obs.metrics import percentile  # also this layer's export
from repro.serve.tenant import TenantRecord, WindowSample


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


@dataclass(frozen=True)
class TenantMetrics:
    """Latency summary of one tenant's served windows."""

    tenant: str
    status: str
    windows_served: int
    reschedules: int
    #: Per-task latencies of the served windows.
    latency: Distribution = field(compare=False, repr=False)

    @classmethod
    def from_record(cls, record: TenantRecord) -> "TenantMetrics":
        return cls(
            tenant=record.name,
            status=record.status,
            windows_served=record.windows_done,
            reschedules=record.reschedules,
            latency=Distribution(partial(
                per_task, record.history,
                attrgetter("measured_latency_s"),
            )),
        )

    @property
    def mean_latency_s(self) -> float:
        return self.latency.mean

    @property
    def p50_latency_s(self) -> float:
        return self.latency.percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency.percentile(95.0)

    @property
    def max_latency_s(self) -> float:
        return self.latency.max

    def latency_dict(self) -> Dict[str, object]:
        """The four latency statistics, as serialised."""
        return {
            key: rendered(getattr(self, key), self.windows_served)
            for key in ("mean_latency_s", "p50_latency_s",
                        "p95_latency_s", "max_latency_s")
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.tenant,
            "status": self.status,
            "windows_served": self.windows_served,
            "reschedules": self.reschedules,
            **self.latency_dict(),
        }


@dataclass(frozen=True)
class ServeReport:
    """The serialized outcome of one serving run."""

    platform: str
    seed: int
    ticks: int
    rescheduling_enabled: bool
    tenants: Mapping[str, TenantMetrics]
    timeline: Sequence[Mapping[str, object]]
    plan_cache: Mapping[str, int]
    #: Blame decomposition summary (``ServerConfig.attribution``);
    #: None - and absent from the serialized form - when attribution
    #: is off, so default report bytes are unchanged.
    attribution: Optional[Mapping[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        """Stable dict for :func:`repro.core.serialization.write_json_report`.

        Keys are emitted in sorted tenant order so two runs with the
        same seed serialize byte-identically.
        """
        out: Dict[str, object] = {
            "platform": self.platform,
            "seed": self.seed,
            "ticks": self.ticks,
            "rescheduling_enabled": self.rescheduling_enabled,
            "tenants": {
                name: self.tenants[name].to_dict()
                for name in sorted(self.tenants)
            },
            "timeline": list(self.timeline),
            "plan_cache": {key: value for key, value
                           in self.plan_cache.items() if key != "hits"},
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        return out

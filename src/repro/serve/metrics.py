"""Deterministic serving metrics and the final serve report.

Everything here is pure arithmetic over recorded window measurements -
no wall clock, no RNG - so a serve run's report is byte-identical
across repeats with the same seed (the acceptance property the soak
test asserts by comparing serialized reports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.errors import ServeError
from repro.obs.metrics import percentile  # also this layer's export
from repro.serve.tenant import TenantRecord


def attainment(samples: Sequence[float], slo: float) -> float:
    """Fraction of samples meeting an SLO threshold, in [0, 1].

    A sample *attains* when it is at or under the threshold - the
    boundary counts as met, matching how latency SLOs are stated
    ("p95 <= 40 ms").  Raises on an empty sample set (a tenant with no
    served windows has no attainment, and silently reporting 0.0 or
    1.0 would each mislead in a different direction) and on a
    non-positive threshold.
    """
    if not samples:
        raise ServeError("attainment of an empty sample set")
    if slo <= 0.0:
        raise ServeError(f"SLO threshold must be positive, got {slo}")
    met = sum(1 for sample in samples if sample <= slo)
    return met / len(samples)


@dataclass(frozen=True)
class TenantMetrics:
    """Latency summary of one tenant's served windows."""

    tenant: str
    status: str
    windows_served: int
    reschedules: int
    mean_latency_s: float
    p50_latency_s: float
    p95_latency_s: float
    max_latency_s: float

    @classmethod
    def from_record(cls, record: TenantRecord) -> "TenantMetrics":
        samples = record.per_item_latencies()
        if not samples:
            return cls(
                tenant=record.name,
                status=record.status,
                windows_served=0,
                reschedules=record.reschedules,
                mean_latency_s=0.0,
                p50_latency_s=0.0,
                p95_latency_s=0.0,
                max_latency_s=0.0,
            )
        return cls(
            tenant=record.name,
            status=record.status,
            windows_served=record.windows_done,
            reschedules=record.reschedules,
            mean_latency_s=sum(samples) / len(samples),
            p50_latency_s=percentile(samples, 50.0),
            p95_latency_s=percentile(samples, 95.0),
            max_latency_s=max(samples),
        )

    def to_dict(self) -> Dict[str, object]:
        # A tenant with zero completed windows has no latency
        # distribution; rendering 0.0 would read as "infinitely fast"
        # in the report, so the serialized form says "n/a" instead
        # (the dataclass fields stay numeric for arithmetic consumers).
        def _latency(value: float) -> object:
            if self.windows_served == 0:
                return "n/a"
            return round(value, 9)

        return {
            "tenant": self.tenant,
            "status": self.status,
            "windows_served": self.windows_served,
            "reschedules": self.reschedules,
            "mean_latency_s": _latency(self.mean_latency_s),
            "p50_latency_s": _latency(self.p50_latency_s),
            "p95_latency_s": _latency(self.p95_latency_s),
            "max_latency_s": _latency(self.max_latency_s),
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
        """Stable dict for :func:`repro.serialization.write_json_report`.

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
            "plan_cache": dict(self.plan_cache),
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        return out

"""Per-window interference blame decomposition.

The paper's premise is that co-scheduled pipelines interfere; the serving
layer can already report *that* a window was slow (``WindowSample.
measured_latency_s`` against its ``isolated_s`` prediction) but not *who*
caused it.  This module closes that gap with an exact, deterministic
decomposition: for each simulated window the observed slowdown is
attributed to (source, resource-class) pairs, where a *source* is one
co-tenant or one injected interference drift, and the *resource class*
distinguishes compute contention (DVFS co-load plus same-class
time-sharing) from DRAM-bandwidth fair-share.

The mechanism is counterfactual replay of the DES steady-state rate
model.  :func:`steady_interval` re-evaluates the pipeline's bottleneck
interval under an arbitrary external load, using the *same* scalar model
calls as the simulator engines (``Platform.instantaneous_rate`` +
:func:`~repro.soc.interference.external_co_load` + same-class fair
share).  For each source we compute two leave-one-component-out deltas:

* replacing the source with :meth:`~repro.soc.interference.ExternalLoad.
  bandwidth_only` removes its busy fractions -> the interval drop is its
  **compute** blame weight;
* replacing it with :meth:`~repro.soc.interference.ExternalLoad.
  compute_only` removes its bandwidth demand -> the drop is its
  **bandwidth** blame weight.

Weights are then normalised against the *measured* excess slowdown
(``slowdown - 1``), so the shares plus an explicit ``residual`` term sum
to the measurement exactly (the conservation property tested in
``tests/obs/test_attribution.py``).  The residual absorbs model error,
execution jitter and queueing effects the steady-state model cannot see.

Everything here is a pure function of its inputs - no clocks, no global
state - so matrices are byte-identical across seeded runs and across
both simulator engines (which agree on the measured latency bit-for-bit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.soc.interference import ExternalLoad, external_co_load

#: Resource classes a source can be blamed on.
COMPUTE = "compute"
BANDWIDTH = "bandwidth"


@dataclass(frozen=True)
class ChunkLoad:
    """Steady-state load profile of one pipeline chunk.

    Aggregated over the chunk's stages by the simulator
    (``SimulatedPipelineExecutor.attribution_inputs``): overheads and
    work times sum; memory-boundedness and bandwidth demand are
    work-time-weighted means, matching the time-average the DES rate
    machinery applies phase by phase.
    """

    pu_class: str
    overhead_s: float
    work_s: float
    memory_boundedness: float
    demand_gbps: float


@dataclass(frozen=True)
class BlameShare:
    """One (source, resource) cell of a blame matrix.

    ``share`` is in slowdown units: the portion of ``slowdown - 1``
    attributed to this cell.
    """

    source: str
    resource: str
    share: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "resource": self.resource,
            "share": round(self.share, 9),
        }


@dataclass(frozen=True)
class BlameMatrix:
    """Exact decomposition of one window's measured slowdown.

    Invariant: ``sum(s.share for s in shares) + residual`` equals
    ``slowdown - 1.0`` up to float rounding, for every window, seed and
    simulator engine.
    """

    tenant: str
    window_index: int
    slowdown: float
    shares: Tuple[BlameShare, ...]
    residual: float

    @property
    def attributed(self) -> float:
        """Sum of the per-source shares (excludes the residual)."""
        return sum(share.share for share in self.shares)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "window": self.window_index,
            "slowdown": round(self.slowdown, 9),
            "shares": [share.to_dict() for share in self.shares],
            "residual": round(self.residual, 9),
        }


def steady_interval(
    chunks: Sequence[ChunkLoad],
    platform: Any,
    external: Optional[ExternalLoad],
) -> float:
    """Steady-state pipeline interval under a given external load.

    Mirrors the DES rate model in its saturated regime: every chunk is
    assumed active in its work phase, so DVFS co-load counts each other
    internal class at 1.0 and the memory controller sees the summed
    demand.  The pipeline interval is the slowest chunk's stage time.
    """
    busy_classes = {chunk.pu_class for chunk in chunks}
    total_other = max(len(platform.pu_classes()) - 1, 0)
    ext = None if external is None or external.is_empty else external
    total_demand = sum(chunk.demand_gbps for chunk in chunks)
    if ext is not None:
        total_demand += ext.demand_gbps
    worst = 0.0
    for chunk in chunks:
        if chunk.work_s > 0.0:
            co_load = external_co_load(
                busy_classes, chunk.pu_class, ext, total_other
            )
            rate = platform.instantaneous_rate(
                memory_boundedness=chunk.memory_boundedness,
                pu_class=chunk.pu_class,
                demand_gbps=chunk.demand_gbps,
                total_demand_gbps=total_demand,
                co_load=co_load,
            )
            if ext is not None:
                share = ext.busy.get(chunk.pu_class, 0.0)
                if share > 0.0:
                    rate /= 1.0 + share
            interval = chunk.overhead_s + chunk.work_s / rate
        else:
            interval = chunk.overhead_s
        if interval > worst:
            worst = interval
    return worst


def _counterfactual_weights(
    chunks: Sequence[ChunkLoad],
    platform: Any,
    sources: Sequence[Tuple[str, ExternalLoad]],
) -> List[Tuple[str, str, float]]:
    """Leave-one-component-out interval drops, in source order."""
    loads = [load for _, load in sources]
    full_interval = steady_interval(
        chunks, platform, ExternalLoad.combined(loads)
    )
    weights: List[Tuple[str, str, float]] = []
    for index, (label, load) in enumerate(sources):
        for resource, stripped in (
            (COMPUTE, load.bandwidth_only()),
            (BANDWIDTH, load.compute_only()),
        ):
            counterfactual = list(loads)
            counterfactual[index] = stripped
            interval = steady_interval(
                chunks, platform, ExternalLoad.combined(counterfactual)
            )
            weights.append(
                (label, resource, max(full_interval - interval, 0.0))
            )
    return weights


def decompose(
    tenant: str,
    window_index: int,
    slowdown: float,
    chunks: Sequence[ChunkLoad],
    platform: Any,
    sources: Sequence[Tuple[str, ExternalLoad]],
) -> BlameMatrix:
    """Attribute a window's measured slowdown to its external sources.

    Args:
        tenant: The slowed-down tenant (blame target).
        window_index: Its window index within the serving session.
        slowdown: Measured latency over the isolated prediction.
        chunks: Steady-state chunk loads from the window's executor.
        platform: The shared SoC (``Platform``-shaped; only
            ``pu_classes()`` and ``instantaneous_rate()`` are used).
        sources: Ordered ``(label, load)`` pairs - co-tenants in
            admission order, then drifts - so share order, and therefore
            report bytes, are a pure function of the seeded run.

    The per-source counterfactual weights are normalised against the
    measured excess ``slowdown - 1``; whatever the model cannot explain
    (or a net speedup, when DVFS boost wins) lands in ``residual`` so
    the matrix always sums to the measurement exactly.
    """
    excess = slowdown - 1.0
    shares: List[BlameShare] = []
    residual = excess
    if sources and excess > 0.0:
        weights = _counterfactual_weights(chunks, platform, sources)
        total_weight = sum(weight for _, _, weight in weights)
        if total_weight > 0.0:
            attributed = 0.0
            for label, resource, weight in weights:
                if weight <= 0.0:
                    continue
                share = excess * (weight / total_weight)
                attributed += share
                shares.append(
                    BlameShare(source=label, resource=resource, share=share)
                )
            residual = excess - attributed
    return BlameMatrix(
        tenant=tenant,
        window_index=window_index,
        slowdown=slowdown,
        shares=tuple(shares),
        residual=residual,
    )


def top_offenders(
    matrices: Sequence[BlameMatrix], k: int = 5
) -> List[Dict[str, Any]]:
    """Aggregate blame across windows into the top-K offender cells.

    Shares sum per (source, resource) pair; ties break lexicographically
    so the ranking is deterministic.  Output values are rounded like
    every other report field.
    """
    totals: Dict[Tuple[str, str], float] = {}
    windows: Dict[Tuple[str, str], int] = {}
    for matrix in matrices:
        for share in matrix.shares:
            key = (share.source, share.resource)
            totals[key] = totals.get(key, 0.0) + share.share
            windows[key] = windows.get(key, 0) + 1
    ranked = sorted(
        totals.items(), key=lambda item: (-item[1], item[0][0], item[0][1])
    )
    return [
        {
            "source": source,
            "resource": resource,
            "total_share": round(total, 9),
            "windows": windows[(source, resource)],
        }
        for (source, resource), total in ranked[: max(k, 0)]
    ]

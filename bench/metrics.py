"""The metric registry: every name the ledger prints, with its unit,
direction, regression bound and the workloads it is defined on.

Names are normative - later issues and ``BENCHMARK.json`` refer to
them.  ``sim`` metrics are *modelled* quantities, deterministic for a
seed (two runs of one commit must match exactly); ``host`` metrics are
the simulator's own speed and memory on the box it ran on.

A metric that is not defined on a workload is omitted there, never
reported as zero.  The pipeline's ``BENCHMARK.json`` needs every
end-to-end metric on every workload, so it carries the ones defined
everywhere (those with a ``pipeline_bound``); the workload-specific
ones live in this ledger and are gated by ``bench/compare.py``.

Two bounds, because two comparisons: ``bound`` is for two runs of
*one* seed (``compare.py``), where modelled metrics repeat exactly;
``pipeline_bound`` is for the pipeline's medians over *different*
seeds, so it is sized to the seed-to-seed spread.
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

HIGHER, LOWER = "higher", "lower"
HOST, SIM = "host", "sim"

ALL = ("paper_campaign", "fleet_steady", "fleet_overload",
       "fleet_coldplan_chaos")
FLEET = ALL[1:]
CAMPAIGN = ALL[:1]


@dataclass(frozen=True)
class EndToEnd:
    """One end-to-end metric and how far it may worsen."""

    name: str
    unit: str
    better: str
    kind: str
    workloads: Tuple[str, ...]
    #: Allowed worsening as a share of the base value ...
    bound: float
    #: ... or this absolute amount, whichever is larger.
    abs_bound: float = 0.0
    #: The bound ``BENCHMARK.json`` declares; None keeps the metric
    #: out of it (not defined on every workload).
    pipeline_bound: Optional[float] = None
    doc: str = ""

    def allowed(self, base: float) -> float:
        """The worsening of ``base`` that still counts as no change."""
        return max(self.bound * abs(base), self.abs_bound)

    def worsening(self, base: float, new: float) -> float:
        """How much worse ``new`` is than ``base`` (<= 0: not worse)."""
        return (base - new) if self.better == HIGHER else (new - base)


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", LOWER, HOST, ALL, 0.20, 0.1, 0.25,
             "process start -> first timed call: imports, input "
             "generation, app/platform/fleet build; warm-up excluded; "
             "median of several cold set-ups"),
    EndToEnd("ops_per_s", "1/s", HIGHER, HOST, ALL, 0.10, 0.0, 0.25,
             "operations (arrivals | plans) per host second of the "
             "timed region"),
    EndToEnd("peak_rss_mb", "MiB", LOWER, HOST, ALL, 0.10, 0.0, 0.10,
             "child ru_maxrss after the untraced repeats"),
    EndToEnd("goodput_tasks", "tasks", HIGHER, SIM, ALL, 0.01, 0.0, 0.20,
             "goal-attaining tasks: window-tasks served within their "
             "tier SLO (fleet); tasks measured under plans that beat "
             "the best homogeneous baseline (campaign)"),
    EndToEnd("sim_latency_ratio", "ratio", LOWER, SIM, ALL, 0.01, 0.0,
             0.08,
             "geomean of modelled latency over its reference: window "
             "latency / isolated prediction (fleet), BetterTogether / "
             "best homogeneous baseline (campaign)"),
    EndToEnd("ticks_per_s", "1/s", HIGHER, HOST, FLEET, 0.10,
             doc="fleet control ticks per host second"),
    EndToEnd("windows_per_s", "1/s", HIGHER, HOST, FLEET, 0.10,
             doc="served execution windows per host second"),
    EndToEnd("plans_per_s", "1/s", HIGHER, HOST, CAMPAIGN, 0.10,
             doc="(app, platform) deployment plans per host second"),
    EndToEnd("slo_attainment", "ratio", HIGHER, SIM, FLEET, 0.0, 0.01,
             doc="attaining windows / offered windows: rejected, shed, "
                 "aged-out and horizon-cut windows count as misses"),
    EndToEnd("gold_p99_slowdown", "ratio", LOWER, SIM, FLEET, 0.01,
             doc="gold-tier p99 of latency / isolated prediction"),
    EndToEnd("bt_latency_geomean_ms", "ms", LOWER, SIM, CAMPAIGN, 0.01,
             doc="geomean over the cells of BetterTogether's measured "
                 "per-task latency"),
    EndToEnd("fig4_geomean_err", "ratio", LOWER, SIM, CAMPAIGN, 0.0,
             0.005,
             doc="|overall Fig. 4 geomean speedup - 2.17| / 2.17 "
                 "(PAPER.md section 5.1)"),
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}


@dataclass(frozen=True)
class PerLayer:
    """One per-layer metric; no bound - it explains, it does not gate."""

    name: str
    unit: str
    better: str
    #: Defined on every workload (0 when the layer idles), so it can
    #: ride in ``BENCHMARK.json``; ratios with an empty base cannot.
    always: bool = True


def _layer(prefix: str, *rows: Tuple) -> Tuple[PerLayer, ...]:
    return tuple(
        PerLayer(f"{prefix}.{row[0]}", row[1], row[2],
                 row[3] if len(row) > 3 else True)
        for row in rows
    )


PER_LAYER: Tuple[PerLayer, ...] = (
    _layer(
        "traffic",
        ("generate_s", "s", LOWER),
        ("materialize_self_s", "s", LOWER),
        ("materialize_calls", "count", LOWER),
        ("materialize_distinct_ratio", "ratio", HIGHER, False),
        ("drive_self_s", "s", LOWER),
        ("evaluate_s", "s", LOWER),
        ("serialize_s", "s", LOWER),
        ("report_bytes", "bytes", LOWER, False),
    ) + _layer(
        "fleet",
        ("step_self_s", "s", LOWER),
        ("choose_shard_self_s", "s", LOWER),
        ("choose_shard_calls", "count", LOWER),
        ("choose_shard_calls_per_arrival", "ratio", LOWER, False),
        ("close_s", "s", LOWER),
        ("tick_p50_ms", "ms", LOWER, False),
        ("tick_p95_ms", "ms", LOWER, False),
        ("tick_max_ms", "ms", LOWER, False),
        ("backlog_peak", "count", LOWER, False),
        ("placements", "count", HIGHER, False),
        ("migrations", "count", LOWER, False),
        ("failovers", "count", LOWER, False),
        ("rejects", "count", LOWER, False),
        ("shed", "count", LOWER, False),
        ("window_log_len", "count", LOWER, False),
    ) + _layer(
        "serve",
        ("step_self_s", "s", LOWER),
        ("try_admit_self_s", "s", LOWER),
        ("admission_evaluate_s", "s", LOWER),
        ("admission_evaluate_self_s", "s", LOWER),
        ("admission_evaluate_calls", "count", LOWER),
        ("admission_admit_ratio", "ratio", HIGHER, False),
    ) + _layer(
        "core",
        ("plan_for_s", "s", LOWER),
        ("plan_for_self_s", "s", LOWER),
        ("plan_cache_hits", "count", HIGHER, False),
        ("plan_cache_misses", "count", LOWER, False),
        ("plan_cache_hit_ratio", "ratio", HIGHER, False),
        ("schedule_predict_s", "s", LOWER),
        ("schedule_predict_calls", "count", LOWER),
        ("profile_s", "s", LOWER),
        ("optimize_self_s", "s", LOWER),
        ("autotune_self_s", "s", LOWER),
        ("autotune_gain_geomean", "ratio", HIGHER, False),
    ) + _layer(
        "solver",
        ("minimize_s", "s", LOWER),
        ("minimize_calls", "count", LOWER),
        ("decisions", "count", LOWER),
        ("propagations", "count", LOWER),
        ("us_per_propagation", "us", LOWER, False),
    ) + _layer(
        "runtime",
        ("simulate_batch_s", "s", LOWER),
        ("simulate_batch_calls", "count", LOWER),
        ("windows", "count", LOWER),
        ("events", "count", LOWER),
        ("us_per_event", "us", LOWER),
        ("run_s", "s", LOWER),
    ) + _layer("soc", ("platform_build_s", "s", LOWER))
    + _layer("apps", ("build_s", "s", LOWER))
    + _layer("baselines", ("measure_s", "s", LOWER))
    + _layer(
        "bench",
        ("trace_overhead_pct", "%", LOWER),
        ("unattributed_s", "s", LOWER),
        ("contention_pct", "%", LOWER),
        ("wall_iqr_pct", "%", LOWER, False),
    )
)

def iqr_share(values: Sequence[float]) -> Optional[float]:
    """(Q3 - Q1) / median - the spread the pipeline judges a metric
    by; None when it is undefined (fewer than two values, median 0)."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else None


def check_names() -> Optional[str]:
    """The first metric name or unit that breaks the naming rules."""
    seen = set()
    for metric in END_TO_END + PER_LAYER:
        if not NAME_RE.match(metric.name):
            return f"bad metric name {metric.name!r}"
        if not UNIT_RE.match(metric.unit):
            return f"bad unit {metric.unit!r} on {metric.name}"
        if metric.name in seen:
            return f"duplicate metric name {metric.name!r}"
        seen.add(metric.name)
    return None

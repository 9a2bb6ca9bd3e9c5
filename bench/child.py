"""One workload, in its own process: set-up, warm-up, timed untraced
repeats on fresh objects, then one traced repeat.

Run by :mod:`bench.__main__` as ``python -m bench.child``; prints one
JSON object as the last line of stdout.  Everything the parent reports
is measured here, inside the process that ran the program.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

from bench.metrics import END_TO_END_BY_NAME, iqr_share
from bench.probe import Calibration, Prober, now

#: Variables that change what the program *is* (DES engine, runtime
#: checker); a benchmark run must not inherit them.
FORBIDDEN_ENV = ("REPRO_SIM_ENGINE", "REPRO_CHECK")

#: A repeat whose wall clock outran its CPU time by this factor was
#: descheduled or throttled while it ran.
DISTURBED_RATIO = 1.15


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def calibrated_segments(calibration: Calibration,
                        stamps: List[float]) -> List[float]:
    """Calibrated seconds between consecutive stamps of one repeat."""
    marks = [calibration.at(stamp) for stamp in stamps]
    return [b - a for a, b in zip(marks, marks[1:])]


def typical_segments(repeats: List[List[float]]) -> List[float]:
    """Per segment, the median over the repeats.

    Repeats run identical inputs, so a segment (tick, plan) does the
    same work in each; what the probe could not calibrate away - it
    sees the core every 5 ms, and a tick lasts 10-40 - differs from
    repeat to repeat and is filtered segment by segment, which a
    whole-repeat median cannot do.
    """
    return [statistics.median(column) for column in zip(*repeats)]


def wall_stats(walls: List[float], calibrated: float) -> Dict[str, float]:
    out = {"calibrated_s": calibrated,
           "median_s": statistics.median(walls),
           "min_s": min(walls), "n": len(walls)}
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        out["q1_s"], out["q3_s"] = q1, q3
    return out


def per_layer(tracer, timers: Dict[str, float], outcome,
              typical: List[float], n_ticks: int, repeats: List[dict],
              traced: dict, setup_scale: float) -> Dict[str, float]:
    """Every per-layer metric this run defines, by registry name.

    Seconds are calibrated like the end-to-end rates: the traced
    repeat's spans by that repeat's calibrated / raw wall, the set-up
    timers by the set-up's."""
    scale = traced["calibrated_s"] / traced["wall_s"]
    own = tracer.self_by_name("bench.timed")
    counts = tracer.counts

    def self_s(name: str) -> float:
        return own.get(name, 0.0) * scale

    def total_s(name: str, not_under: Optional[str] = None) -> float:
        return tracer.total(name, not_under) * scale

    batch_s = total_s("runtime.simulate_batch")
    run_s = total_s("runtime.run", "runtime.simulate_batch")
    minimize_s = total_s("solver.minimize")
    out = {
        "traffic.generate_s":
            timers.get("traffic.generate_s", 0.0) * setup_scale,
        "traffic.materialize_self_s": self_s("traffic.materialize"),
        "traffic.materialize_calls": tracer.calls("traffic.materialize"),
        "traffic.drive_self_s": self_s("traffic.drive"),
        "traffic.evaluate_s": total_s("traffic.evaluate"),
        # to_dict plus the canonical dump.
        "traffic.serialize_s": total_s("bench.dump"),
        "fleet.step_self_s": self_s("fleet.step"),
        "fleet.choose_shard_self_s": self_s("fleet.choose_shard"),
        "fleet.choose_shard_calls": tracer.calls("fleet.choose_shard"),
        "fleet.close_s": total_s("fleet.close"),
        "serve.step_self_s": self_s("serve.step"),
        "serve.try_admit_self_s": self_s("serve.try_admit"),
        # Inclusive: with the schedule predictions it asks for.
        "serve.admission_evaluate_s": total_s("serve.admission_evaluate"),
        "serve.admission_evaluate_self_s":
            self_s("serve.admission_evaluate"),
        "serve.admission_evaluate_calls":
            tracer.calls("serve.admission_evaluate"),
        "core.plan_for_s": total_s("core.plan_for"),
        "core.plan_for_self_s": self_s("core.plan_for"),
        "core.schedule_predict_s": total_s("core.schedule_predict"),
        "core.schedule_predict_calls":
            tracer.calls("core.schedule_predict"),
        "core.profile_s": total_s("core.profile"),
        "core.optimize_self_s": self_s("core.optimize"),
        "core.autotune_self_s": self_s("core.autotune"),
        "solver.minimize_s": minimize_s,
        "solver.minimize_calls": tracer.calls("solver.minimize"),
        "solver.decisions": counts.get("solver.decisions", 0),
        "solver.propagations": counts.get("solver.propagations", 0),
        "runtime.simulate_batch_s": batch_s,
        "runtime.simulate_batch_calls":
            tracer.calls("runtime.simulate_batch"),
        "runtime.windows": counts.get("runtime.windows", 0),
        "runtime.events": counts.get("runtime.events", 0),
        "runtime.run_s": run_s,
        "soc.platform_build_s": total_s("soc.platform_build"),
        "apps.build_s": (timers.get("apps.build_s", 0.0) * setup_scale
                         + total_s("apps.build")),
        "baselines.measure_s": total_s("baselines.measure"),
        "bench.trace_overhead_pct":
            (traced["calibrated_s"] / sum(typical) - 1.0) * 100.0,
        "bench.unattributed_s": self_s("bench.timed"),
        # How much slower than the uncontended core the repeats ran.
        "bench.contention_pct":
            (sum(r["wall_s"] for r in repeats)
             / sum(r["calibrated_s"] for r in repeats) - 1.0) * 100.0,
    }
    # Ratios exist only where their base is not empty.
    if out["runtime.events"]:
        out["runtime.us_per_event"] = (
            (batch_s + run_s) * 1e6 / out["runtime.events"])
    if out["solver.propagations"]:
        out["solver.us_per_propagation"] = (
            minimize_s * 1e6 / out["solver.propagations"])
    if out["traffic.materialize_calls"]:
        out["traffic.materialize_distinct_ratio"] = (
            len(tracer.materialized) / out["traffic.materialize_calls"])
    if out["serve.admission_evaluate_calls"]:
        out["serve.admission_admit_ratio"] = (
            counts.get("serve.admission_admits", 0)
            / out["serve.admission_evaluate_calls"])
    tunes = tracer.calls("core.autotune")
    if tunes:
        out["core.autotune_gain_geomean"] = math.exp(
            counts.get("core.autotune_gain_log", 0.0) / tunes)
    spread = iqr_share([r["calibrated_s"] for r in repeats])
    if spread is not None:
        out["bench.wall_iqr_pct"] = spread * 100.0
    # Exact counts off the program's own report (fleet workloads).
    for name, value in outcome.counts.items():
        if "." in name:
            out[name] = value
    if "core.plan_cache_hits" in out:
        lookups = (out["core.plan_cache_hits"]
                   + out["core.plan_cache_misses"])
        if lookups:
            out["core.plan_cache_hit_ratio"] = (
                out["core.plan_cache_hits"] / lookups)
    if n_ticks:
        ticks_ms = [seconds * 1e3 for seconds in typical[:n_ticks]]
        out["fleet.tick_p50_ms"] = percentile(ticks_ms, 50.0)
        out["fleet.tick_p95_ms"] = percentile(ticks_ms, 95.0)
        out["fleet.tick_max_ms"] = max(ticks_ms)
        if outcome.ops_attempted:
            out["fleet.choose_shard_calls_per_arrival"] = (
                out["fleet.choose_shard_calls"] / outcome.ops_attempted)
    return out


def layer_shares(tracer) -> Dict[str, float]:
    """Layer -> share of the traced wall spent in its own code."""
    own = tracer.self_by_name("bench.timed")
    total = sum(own.values())
    shares: Dict[str, float] = {}
    for name, seconds in own.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / total
    return shares


def end_to_end(workload, outcome, typical_wall: float,
               repeats: List[dict], setup_s: float,
               peak_rss_mb: float) -> tuple:
    """(values, per-repeat samples) of every end-to-end metric defined
    on this workload.  A rate's value divides by the calibrated wall
    of the typical repeat; its samples divide by each repeat's own,
    for the spread."""
    if workload.family == "fleet":
        work = {"ops_per_s": outcome.ops_attempted,
                "ticks_per_s": workload.ticks,
                "windows_per_s": outcome.counts["served_windows"]}
    else:
        work = {"ops_per_s": outcome.ops_attempted,
                "plans_per_s": outcome.ops_attempted}
    values = {name: amount / typical_wall
              for name, amount in work.items()}
    samples = {name: [amount / r["calibrated_s"] for r in repeats]
               for name, amount in work.items()}
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb
    for name, value in outcome.sim.items():
        if name in END_TO_END_BY_NAME:
            values[name] = value
    return values, samples


def timed_repeat(workload, inputs, objects, prober: Prober) -> tuple:
    """One untraced repeat: (record, segment stamps, outcome)."""
    gc.collect()
    prober.sample()
    cpu = time.process_time()
    stamps = [now()]
    ran = workload.run(inputs, objects, lambda: stamps.append(now()),
                       contextlib.nullcontext)
    stamps.append(now())
    cpu = time.process_time() - cpu
    prober.sample()
    wall = stamps[-1] - stamps[0]
    outcome = workload.outcome(inputs, ran)
    record = {"wall_s": wall, "cpu_s": cpu,
              "disturbed": wall > DISTURBED_RATIO * cpu,
              "report_sha256": outcome.sha256}
    return record, stamps, outcome


def traced_repeat(trace, workload, inputs, prober: Prober) -> tuple:
    """The traced repeat: (tracer, record, stamps, outcome).  Fresh
    objects are built under their own root so the timed root holds
    exactly the timed region."""
    tracer = trace.Tracer()
    gc.collect()
    with trace.tracing(tracer):
        with tracer.span("bench.build"):
            objects = workload.fresh(inputs)
        prober.sample()
        cpu = time.process_time()
        started = now()
        with tracer.span("bench.timed"):
            ran = workload.run(inputs, objects, lambda: None, tracer.span)
        ended = now()
        cpu = time.process_time() - cpu
        prober.sample()
    outcome = workload.outcome(inputs, ran)
    record = {
        "wall_s": ended - started, "cpu_s": cpu,
        "report_sha256": outcome.sha256,
        "spans": len(tracer.names),
        "self_sum_s": sum(tracer.self_by_name("bench.timed").values()),
    }
    return tracer, record, [started, ended], outcome


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="monotonic time the parent spawned us at")
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe-reference", type=float,
                        help="uncontended probe seconds, from a child "
                             "that ran long enough to know")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    leaked = [name for name in FORBIDDEN_ENV if name in os.environ]
    if leaked:
        print(f"bench: refusing to run with {', '.join(leaked)} set: "
              "they select a different program", file=sys.stderr)
        return 2

    prober = Prober(origin=args.t0)
    prober.start()
    timers: Dict[str, float] = {}
    started = time.perf_counter()
    import numpy

    from bench import trace
    from bench.workloads import WORKLOADS

    timers["setup.import_s"] = time.perf_counter() - started
    workload = WORKLOADS[args.workload].at_scale(args.scale)
    inputs = workload.prepare(args.seed, timers)
    objects = workload.fresh(inputs)
    setup_end = now()
    if args.setup_only:
        prober.stop()
        calibration = prober.calibration(
            args.probe_reference or prober.reference())
        print(json.dumps({
            "setup_s": calibration.between(args.t0, setup_end),
            "setup_wall_s": setup_end - args.t0,
        }))
        return 0

    workload.warm_up(inputs)

    if args.repeats is not None:
        target, budget = args.repeats, None
    elif args.seconds is not None:
        # A traced run leaves half its time to the traced repeat.
        target, budget = None, args.seconds / (2.0 if args.trace else 1.0)
    else:
        target, budget = workload.repeats, None

    repeats: List[dict] = []
    stamps: List[List[float]] = []
    outcomes = []
    loop_started = now()
    while True:
        still = trace.installed()
        if still:
            print("bench: wrappers still installed during an untraced "
                  f"repeat: {still}", file=sys.stderr)
            return 2
        record, marks, outcome = timed_repeat(
            workload, inputs, objects or workload.fresh(inputs), prober)
        objects = None
        repeats.append(record)
        stamps.append(marks)
        outcomes.append(outcome)
        if target is not None:
            if len(repeats) >= target:
                break
        # One more repeat only if most of it still fits: the measured
        # time lands within half a repeat of the budget either way.
        elif (now() - loop_started + 0.5 * statistics.median(
                r["wall_s"] for r in repeats)) > budget:
            break
    # Read before tracing: the spans must not count as the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = traced = None
    if args.trace:
        tracer, traced, traced_stamps, outcome = traced_repeat(
            trace, workload, inputs, prober)
        outcomes.append(outcome)
    prober.stop()

    reference = prober.reference()
    calibration = prober.calibration(reference)
    segments = [calibrated_segments(calibration, marks) for marks in stamps]
    for record, durations in zip(repeats, segments):
        record["calibrated_s"] = sum(durations)
    typical = typical_segments(segments)
    setup_s = calibration.between(args.t0, setup_end)

    first = outcomes[0]
    layers = shares = None
    if args.trace:
        traced["calibrated_s"] = calibration.between(*traced_stamps)
        layers = per_layer(
            tracer, timers, first, typical,
            workload.ticks if workload.family == "fleet" else 0,
            repeats, traced, setup_s / (setup_end - args.t0))
        shares = layer_shares(tracer)
        if args.spans_out:
            with open(args.spans_out, "w") as sink:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": tracer.to_rows()}, sink)

    # Repeats run identical inputs: either every report hashes alike
    # (and the first repeat's checks speak for all) or the mismatch is
    # itself the failure.
    mismatched = sum(1 for o in outcomes if o.sha256 != first.sha256)
    checks = [{
        "name": "deterministic_report", "ok": mismatched == 0,
        "detail": (f"{mismatched} of {len(outcomes)} repeats (traced "
                   "included) hash differently" if mismatched else ""),
    }] + [
        {"name": name, "ok": ok, "detail": detail}
        for name, ok, detail, _ in first.checks
    ]

    values, samples = end_to_end(workload, first, sum(typical), repeats,
                                 setup_s, peak_rss_mb)
    print(json.dumps({
        "workload": workload.name,
        "family": workload.family,
        "seed": args.seed,
        "scale": args.scale,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        },
        "setup_s": setup_s,
        "setup_wall_s": setup_end - args.t0,
        "setup_breakdown": timers,
        "probe": {"reference_s": reference,
                  "samples": len(prober.starts)},
        "repeats": repeats,
        "traced": traced,
        "wall": wall_stats([r["wall_s"] for r in repeats], sum(typical)),
        "report_sha256": first.sha256,
        "ops_attempted": first.ops_attempted,
        "ops_failed": first.failed_ops + mismatched,
        "checks": checks,
        "sim": first.sim,
        "counts": first.counts,
        "end_to_end": values,
        "samples": samples,
        "per_layer": layers,
        "layer_shares": shares,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

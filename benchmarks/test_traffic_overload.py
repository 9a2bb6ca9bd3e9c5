"""Traffic overload benchmark: admission control's worth at 1.5x load.

Not a paper artifact - the traffic layer is this repository's
open-loop serving extension - but measured the paper's way: the
identical seeded overload scenario with the mechanism on and off,
compared on the statistic the mechanism is accountable for.  Admission
control serves strictly *fewer* windows than admit-everything; what it
buys is that the windows it does serve stay inside their tier SLOs, so
goodput (SLO-attaining window-tasks) must strictly favour it.  The
goodput-vs-offered-load curve is written to
``.bench_out/BENCH_traffic.json`` - the trajectory CI uploads so each
PR shows its delta - and so is what a served window costs in retained
memory, at two run lengths.
"""

import gc
import json
import os
import tracemalloc

from benchmarks.conftest import bench_path, run_once
from repro.eval.metrics import format_table
from repro.core.serialization import write_json_report
from repro.traffic import (
    FleetOverloadScenario,
    evaluate,
)

BENCH_PATH = bench_path("traffic")


def test_admission_vs_admit_everything(benchmark):
    scenario = FleetOverloadScenario()

    def evaluate():
        _, with_admission = scenario.run(admission=True)
        _, admit_all = scenario.run(admission=False)
        curve = scenario.curve(admission=True)
        return with_admission, admit_all, curve

    with_admission, admit_all, curve = run_once(benchmark, evaluate)

    rows = [["", "admission on", "admit everything"]]
    for label, pick in [
        ("served windows", lambda r: r.served_windows),
        ("goodput windows", lambda r: r.goodput_windows),
        ("goodput tasks", lambda r: r.goodput_tasks),
        ("rejected tenants", lambda r: r.rejected),
        ("gold attainment",
         lambda r: f"{r.tiers['gold'].attainment:.3f}"),
    ]:
        rows.append([label, str(pick(with_admission)),
                     str(pick(admit_all))])
    print("\n" + format_table(rows))

    write_json_report(BENCH_PATH, {
        "benchmark": "traffic_overload",
        "scenario": {
            "seed": scenario.seed,
            "n_shards": scenario.n_shards,
            "ticks": scenario.ticks,
            "load_multiplier": scenario.load_multiplier,
        },
        "admission_on": {
            "served_windows": with_admission.served_windows,
            "goodput_tasks": with_admission.goodput_tasks,
        },
        "admit_everything": {
            "served_windows": admit_all.served_windows,
            "goodput_tasks": admit_all.goodput_tasks,
        },
        "goodput_curve": curve,
    })

    # Admit-everything wins on raw throughput...
    assert admit_all.served_windows > with_admission.served_windows
    # ...admission control wins on what the fleet actually sells.
    assert with_admission.goodput_tasks > admit_all.goodput_tasks
    # Graceful degradation: goodput plateaus past saturation instead
    # of collapsing.
    goodput = [p["goodput_tasks"] for p in curve]
    assert goodput[0] < goodput[1] < goodput[2]
    assert goodput[3] >= 0.85 * goodput[2]


def _steady_soak(ticks):
    """The perf ledger's ``fleet_steady`` shape (8 shards at 0.5x
    saturation), with everything a run holds kept alive: the router
    and its shards, the driver's result, the report."""
    scenario = FleetOverloadScenario(n_shards=8, load_multiplier=0.5,
                                     ticks=ticks)
    driver = scenario.driver()
    result = driver.run()
    return (driver.router, result,
            evaluate(scenario.spec(), scenario.seed, result))


def _retained_bytes_per_window(ticks):
    _steady_soak(ticks)  # process-wide memos are not a window's cost
    gc.collect()
    tracemalloc.start()
    try:
        held = _steady_soak(ticks)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return retained / held[2].served_windows, held[2].served_windows


def test_retained_memory_per_window_is_flat_in_run_length(benchmark):
    """Exact percentiles need every window's sample, so a run's memory
    grows with the windows it served; what must not grow is the cost
    *per window* (all layers: timelines, rows, tenants, reports).  At
    the commit before the single window row: 1 982 / 1 856 B per window
    at 100 / 400 ticks."""
    horizons = (100, 400)
    measured = run_once(benchmark, lambda: [
        _retained_bytes_per_window(ticks) for ticks in horizons])
    (short, _), (long, _) = measured
    print("\n" + format_table(
        [["ticks", "served windows", "retained B / window"]] + [
            [str(ticks), str(windows), f"{per_window:.0f}"]
            for ticks, (per_window, windows) in zip(horizons, measured)]))

    payload = {}
    if os.path.exists(BENCH_PATH):  # the curve, when run in one session
        with open(BENCH_PATH) as handle:
            payload = json.load(handle)
    payload["retained_bytes_per_window"] = {
        str(ticks): round(per_window, 1)
        for ticks, (per_window, _) in zip(horizons, measured)
    }
    write_json_report(BENCH_PATH, payload)

    assert long <= short
    assert long <= 1900.0

"""Benchmark for the shared parsed-AST cache behind lint + flow.

``repro lint`` and ``repro flow`` both walk every ``.py`` file in the
package; the :class:`~repro.analysis.astcache.AstCache` exists so the
second tool never re-parses what the first already did.  This module
times the three configurations over the real ``src/repro`` tree and
gates the contract: running *both* tools through the shared cache must
cost at most 1.5x a lint-only run - i.e. the flow pass rides on the
linter's parses instead of doubling the I/O + parse bill.

Results land in ``BENCH_analysis.json`` at the repo root alongside the
other perf-trajectory artifacts.
"""

import os
import time

from repro.analysis.astcache import AstCache
from repro.analysis.flow import analyze_paths
from repro.analysis.linter import default_lint_target, lint_paths
from repro.core.serialization import write_json_report

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_analysis.json",
)

RESULTS = {}


def _best_of_interleaved(cases, rounds=5):
    """case name -> list of wall seconds, one per round.

    One round times every case back to back, so slow stretches of a
    shared/noisy machine hit all cases alike instead of biasing
    whichever block ran last; per-round *ratios* between cases then
    come from comparable conditions even when absolute times drift.
    """
    times = {name: [] for name, _ in cases}
    for _ in range(rounds):
        for name, fn in cases:
            start = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - start)
    return times


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _record(case, min_s, median_s, **extra):
    entry = {"min_s": round(min_s, 6), "median_s": round(median_s, 6)}
    entry.update(extra)
    RESULTS[case] = entry


def test_lint_plus_flow_rides_the_shared_cache(capsys):
    target = default_lint_target()

    def lint_only():
        cache = AstCache()
        lint_paths([target], cache=cache)
        return cache

    def flow_only():
        cache = AstCache()
        analyze_paths([target], cache=cache)
        return cache

    def both_shared():
        cache = AstCache()
        lint_paths([target], cache=cache)
        analyze_paths([target], cache=cache)
        return cache

    times = _best_of_interleaved([
        ("lint_only", lint_only),
        ("flow_only", flow_only),
        ("both_shared", both_shared),
    ])
    lint_ts = times["lint_only"]
    flow_ts = times["flow_only"]
    both_ts = times["both_shared"]

    cache = both_shared()
    assert cache.hits == cache.misses, (
        "flow should re-use exactly the parses lint produced"
    )

    # Ratios are paired per round: each round's both/lint numbers were
    # measured seconds apart under the same machine conditions, so the
    # ratio is meaningful even when absolute times drift 2x between
    # rounds on a shared box.  The median round is the estimator.
    ratios = [b / l for b, l in zip(both_ts, lint_ts)]
    ratio = _median(ratios)

    _record("lint_only", min(lint_ts), _median(lint_ts))
    _record("flow_only", min(flow_ts), _median(flow_ts))
    _record("lint_plus_flow_shared", min(both_ts), _median(both_ts),
            ratio_vs_lint=round(ratio, 3),
            round_ratios=[round(r, 3) for r in ratios])
    write_json_report(BENCH_PATH, RESULTS)

    with capsys.disabled():
        print(f"\nlint only:        {min(lint_ts):.3f}s")
        print(f"flow only:        {min(flow_ts):.3f}s")
        print(f"lint+flow shared: {min(both_ts):.3f}s "
              f"(median {ratio:.2f}x lint alone; rounds "
              f"{', '.join(f'{r:.2f}x' for r in ratios)})")

    # The PR contract: adding flow to a lint run costs at most 50%
    # extra, because parsing is shared and only rule evaluation differs.
    assert ratio <= 1.5, (
        f"lint+flow through the shared cache took {ratio:.2f}x a "
        f"lint-only run (budget 1.5x): the AST cache is not being "
        f"shared"
    )

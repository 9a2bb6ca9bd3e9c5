"""Benchmark for the flow rule's share of a ``repro lint`` run.

``repro lint`` parses every ``.py`` file once and runs every registered
rule over the tree: the per-statement invariant rules and the
per-function determinism-flow check (the ``FLOW-*`` rules).  This
module times the full rule set against the per-statement rules alone
over the real ``src/repro`` tree and gates the contract: the flow pass
may add at most 50 % to a lint run.

Results land in ``.bench_out/BENCH_analysis.json`` alongside the other
perf-trajectory artifacts.
"""

import ast
import os
import time

from benchmarks.conftest import bench_path
from repro.analysis.flow import FlowRule
from repro.analysis.linter import collect_files, default_lint_target, \
    lint_paths
from repro.analysis.rules import all_rules
from repro.core.serialization import write_json_report

BENCH_PATH = bench_path("analysis")

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


def test_flow_rule_adds_at_most_half_a_lint_run(capsys):
    target = default_lint_target()
    per_statement = [rule for rule in all_rules()
                     if not isinstance(rule, FlowRule)]
    assert len(per_statement) == len(all_rules()) - 1

    def per_statement_only():
        # What lint_paths does, minus the flow rule and suppressions.
        for file_path in collect_files([target]):
            path = str(file_path)
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=path)
            for rule in per_statement:
                if rule.applies(path, source):
                    list(rule.check(tree, path))

    def full_rule_set():
        lint_paths([target])

    times = _best_of_interleaved([
        ("per_statement_rules", per_statement_only),
        ("full_rule_set", full_rule_set),
    ])
    base_ts = times["per_statement_rules"]
    full_ts = times["full_rule_set"]

    # Ratios are paired per round: each round's full/per-statement
    # numbers were measured seconds apart under the same machine
    # conditions, so the ratio is meaningful even when absolute times
    # drift 2x between rounds on a shared box.  The median round is the
    # estimator.
    ratios = [f / b for f, b in zip(full_ts, base_ts)]
    ratio = _median(ratios)

    _record("per_statement_rules", min(base_ts), _median(base_ts))
    _record("full_rule_set", min(full_ts), _median(full_ts),
            ratio_vs_per_statement=round(ratio, 3),
            round_ratios=[round(r, 3) for r in ratios])
    write_json_report(BENCH_PATH, RESULTS)

    with capsys.disabled():
        print(f"\nper-statement rules: {min(base_ts):.3f}s")
        print(f"full rule set:       {min(full_ts):.3f}s "
              f"(median {ratio:.2f}x per-statement alone; rounds "
              f"{', '.join(f'{r:.2f}x' for r in ratios)})")

    # The contract: the flow rule costs at most 50% on top of the
    # per-statement rules, because it reads the tree lint already parsed
    # and skips every module with no sink.
    assert ratio <= 1.5, (
        f"the full lint rule set took {ratio:.2f}x the per-statement "
        f"rules alone (budget 1.5x)"
    )

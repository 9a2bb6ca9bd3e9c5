"""``bench/compare.py A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric) with both values, the ratio
B/A with its base, the bound and a verdict:

``ok``          B is no worse than A by more than the bound;
``regressed``   it is, and the repeats' spread does not explain it;
``unresolved``  it is, but the repeats' IQR exceeds the bound on one
                side and the two sides' repeats overlap - run more
                pairs before calling it either way.

With ``--same-code`` (two runs of one commit) modelled metrics, exact
counts and ``report_sha256`` must be *identical*; anything else is a
regression of determinism.  Exit status 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SIM,
    EndToEnd,
    iqr_share,
)

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"

#: (workload, metric, A, B, note, bound, verdict)
Row = Tuple[str, str, str, str, str, str, str]


def verdict(metric: EndToEnd, a: float, b: float,
            samples_a: Sequence[float], samples_b: Sequence[float],
            same_code: bool) -> str:
    if metric.kind == SIM and same_code:
        return OK if a == b else REGRESSED
    if metric.worsening(a, b) <= metric.allowed(a):
        return OK
    spreads = [s for s in (iqr_share(samples_a), iqr_share(samples_b))
               if s is not None]
    noisy = any(s > metric.bound for s in spreads)
    overlap = (samples_a and samples_b
               and min(samples_a) <= max(samples_b)
               and min(samples_b) <= max(samples_a))
    return UNRESOLVED if noisy and overlap else REGRESSED


def compare(a: dict, b: dict, same_code: bool) -> List[Row]:
    rows: List[Row] = []
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        run_a, run_b = a["workloads"][workload], b["workloads"][workload]
        for metric in END_TO_END:
            name = metric.name
            if name not in run_a["end_to_end"] \
                    or name not in run_b["end_to_end"]:
                continue
            value_a = run_a["end_to_end"][name]
            value_b = run_b["end_to_end"][name]
            ratio = (f"B/A {value_b / value_a:.4f} of {value_a:.6g} "
                     f"{metric.unit}" if value_a else "B/A n/a")
            bound = (f"{metric.bound:.0%}" if metric.bound
                     else f"{metric.abs_bound:g} abs")
            if metric.kind == SIM and same_code:
                bound = "exact"
            rows.append((
                workload, name, f"{value_a:.6g}", f"{value_b:.6g}",
                ratio, bound,
                verdict(metric, value_a, value_b,
                        run_a["samples"].get(name, ()),
                        run_b["samples"].get(name, ()), same_code),
            ))
        if not same_code:
            continue
        exact = [("report_sha256", run_a["report_sha256"],
                  run_b["report_sha256"]),
                 ("ops_attempted", run_a["ops_attempted"],
                  run_b["ops_attempted"])]
        exact += [(key, run_a["counts"][key], run_b["counts"].get(key))
                  for key in sorted(run_a["counts"])]
        if run_a["per_layer"] and run_b["per_layer"]:
            exact += [
                (m.name, run_a["per_layer"][m.name],
                 run_b["per_layer"].get(m.name))
                for m in PER_LAYER
                if m.unit == "count" and m.name in run_a["per_layer"]
                and m.name not in run_a["counts"]
            ]
        for key, value_a, value_b in exact:
            rows.append((
                workload, key, str(value_a)[:16], str(value_b)[:16], "",
                "exact", OK if value_a == value_b else REGRESSED,
            ))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="results JSON of the base run")
    parser.add_argument("b", help="results JSON of the run under test")
    parser.add_argument("--same-code", action="store_true",
                        help="both runs are of one commit: modelled "
                             "metrics and counts must match exactly")
    args = parser.parse_args(argv)

    runs: List[dict] = []
    for path in (args.a, args.b):
        try:
            with open(path) as source:
                runs.append(json.load(source))
        except (OSError, ValueError) as error:
            print(f"compare: cannot read {path}: {error}",
                  file=sys.stderr)
            return 2
    a, b = runs
    for key in ("seed", "scale"):
        if a[key] != b[key]:
            print(f"compare: runs differ in {key} "
                  f"({a[key]} vs {b[key]}); nothing to compare",
                  file=sys.stderr)
            return 2

    rows = compare(a, b, args.same_code)
    if not rows:
        print("compare: the runs share no workload", file=sys.stderr)
        return 2
    header: Row = ("workload", "metric", "A", "B", "ratio (base A)",
                   "bound", "verdict")
    widths = [max(len(row[i]) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    tally: Dict[str, int] = {}
    for row in rows:
        tally[row[-1]] = tally.get(row[-1], 0) + 1
    print(", ".join(f"{count} {name}" for name, count in sorted(
        tally.items())))
    return 1 if tally.get(REGRESSED) else 0


if __name__ == "__main__":
    sys.exit(main())

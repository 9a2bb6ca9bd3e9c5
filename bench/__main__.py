"""``python -m bench``: run the workloads, print the ledger.

Two ways in, one measurement path:

* the ledger - ``python -m bench [--workload NAME]... [--seed N]
  [--repeats R] [--scale full|smoke] [--out PATH] [--no-trace]`` runs
  every chosen workload (fixed repeat count, then one traced repeat),
  prints every metric defined on it and writes a results JSON that
  ``bench/compare.py`` takes;
* one measured run - ``python -m bench --workload NAME --seed N
  --seconds S --trace 0|1``, the form ``BENCHMARK.json`` names: it
  measures for S seconds and ends with one JSON line holding the
  universal end-to-end metrics (``--trace 0``) or the per-layer
  metrics (``--trace 1``).

This process never imports the program; each workload runs in a child
with a scrubbed environment (see :mod:`bench.child`).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench.child import FORBIDDEN_ENV
from bench.metrics import (
    ALL,
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    check_names,
)
from bench.probe import now

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7
DEFAULT_OUT = ".bench_out/results.json"
#: Cold set-ups measured per workload; ``setup_s`` is their median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    """The parent's environment minus everything that would change the
    program, plus a fixed hash seed and the checkout's import path."""
    env = {key: value for key, value in os.environ.items()
           if key not in FORBIDDEN_ENV}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def spawn(workload: str, seed: int, scale: str,
          extra: Sequence[str]) -> dict:
    """Run one child to completion and parse its last stdout line."""
    command = [
        sys.executable, "-m", "bench.child", "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--t0", repr(now()),
        *extra,
    ]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded "
                         f"{CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{workload}: child exited {done.returncode}\n"
                         f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, scale: str,
            extra: Sequence[str]) -> dict:
    """One workload's full measurement: the measuring child, plus
    set-up-only children so ``setup_s`` is a median of cold starts.
    They calibrate against the measuring child's probe reference: it
    ran long enough to have seen the core uncontended."""
    result = spawn(workload, seed, scale, extra)
    reference = repr(result["probe"]["reference_s"])
    setups = [result["setup_s"]] + [
        spawn(workload, seed, scale,
              ["--setup-only", "--probe-reference", reference])["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result["samples"]["setup_s"] = setups
    result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _number(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.6g}"


def print_result(result: dict) -> None:
    """Every metric the run defines, by name, with its unit."""
    wall = result["wall"]
    print(f"== {result['workload']} (seed {result['seed']}, "
          f"{result['scale']}) ==")
    print(f"  repeats {wall['n']}: calibrated {wall['calibrated_s']:.3f} s"
          f" (wall median {wall['median_s']:.3f} s, min "
          f"{wall['min_s']:.3f} s); disturbed "
          f"{sum(1 for r in result['repeats'] if r['disturbed'])}")
    print(f"  report_sha256 {result['report_sha256']}")
    print(f"  ops_attempted {result['ops_attempted']}  "
          f"ops_failed {result['ops_failed']}")
    for check in result["checks"]:
        status = "ok" if check["ok"] else f"FAILED {check['detail']}"
        print(f"  check {check['name']}: {status}")
    print("  -- end to end --")
    for metric in END_TO_END:
        if metric.name in result["end_to_end"]:
            value = result["end_to_end"][metric.name]
            print(f"  {metric.name:<34}{_number(value):>14} "
                  f"{metric.unit:<6} ({metric.kind}, {metric.better} "
                  "is better)")
    for name in ("fig4_geomean_speedup", "gold_p99_samples"):
        if name in result["sim"]:
            print(f"  {name:<34}{_number(result['sim'][name]):>14}")
    if result["per_layer"] is None:
        return
    traced = result["traced"]
    print(f"  -- per layer (traced repeat {traced['wall_s']:.3f} s wall, "
          f"{traced['calibrated_s']:.3f} s calibrated, "
          f"{traced['spans']} spans, self times sum to "
          f"{traced['self_sum_s']:.3f} s) --")
    shares = result["layer_shares"]
    print("  self-time share: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share in
        sorted(shares.items(), key=lambda item: -item[1])))
    for metric in PER_LAYER:
        if metric.name in result["per_layer"]:
            value = result["per_layer"][metric.name]
            print(f"  {metric.name:<34}{_number(value):>14} "
                  f"{metric.unit}")


def contract_line(result: dict, traced: bool) -> str:
    """The one JSON line the pipeline reads."""
    if traced:
        # Always-defined layer metrics read 0 where the layer idled.
        metrics = {
            m.name: {"value": result["per_layer"].get(m.name, 0.0),
                     "unit": m.unit}
            for m in PER_LAYER if m.always
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name],
                     "unit": m.unit}
            for m in END_TO_END if m.pipeline_bound is not None
        }
    return json.dumps({
        "correct": result["ops_failed"] == 0
        and all(check["ok"] for check in result["checks"]),
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int,
                        help="untraced repeats per workload "
                             "(default: the workload's own)")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="results JSON (ledger runs only)")
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced repeat")
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of a fixed "
                             "repeat count")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measured run ending in a JSON line: "
                             "0 end-to-end, 1 per-layer metrics")
    args = parser.parse_args(argv)

    problem = check_names()
    names = args.workload or list(ALL)
    for name in names:
        if not NAME_RE.match(name) or name not in ALL:
            problem = (f"unknown workload {name!r}; "
                       f"known: {', '.join(ALL)}")
    if args.repeats is not None and args.repeats < 1:
        problem = "--repeats must be >= 1"
    if args.trace is not None and len(names) != 1:
        problem = "--trace takes exactly one --workload"
    if not (ROOT / "src" / "repro").is_dir():
        problem = f"no program to measure: {ROOT / 'src' / 'repro'} missing"
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2

    single = args.trace is not None
    traced = bool(args.trace) if single else not args.no_trace
    out_path = ROOT / args.out
    extra: List[str] = ["--trace", str(int(traced))]
    if args.repeats is not None:
        extra += ["--repeats", str(args.repeats)]
    elif args.seconds is not None:
        extra += ["--seconds", repr(args.seconds)]

    results: Dict[str, dict] = {}
    try:
        for name in names:
            spans = []
            if traced and not single:
                out_path.parent.mkdir(parents=True, exist_ok=True)
                spans = ["--spans-out", str(
                    out_path.with_name(f"{out_path.stem}.{name}.spans.json"))]
            results[name] = measure(name, args.seed, args.scale,
                                    extra + spans)
            print_result(results[name])
    except BenchError as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    failed = [name for name, result in results.items()
              if result["ops_failed"]
              or not all(check["ok"] for check in result["checks"])]
    if single:
        print(contract_line(results[names[0]], traced))
    else:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        first = next(iter(results.values()))
        with open(out_path, "w") as sink:
            json.dump({
                "schema": 1,
                "seed": args.seed,
                "scale": args.scale,
                "env": dict(first["env"], git_commit=git_commit()),
                "workloads": results,
            }, sink, indent=1, sort_keys=True)
        print(f"results written to {out_path}")
    if failed:
        print(f"bench: correctness checks failed on {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

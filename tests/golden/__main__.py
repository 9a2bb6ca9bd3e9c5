"""``python -m tests.golden check|update|memo-off|reference`` (run from
the repository root).

``check`` runs every case (or those ``--only`` names) in a fresh
directory per case and exits 1 naming each case and stream that moved;
``update`` rewrites ``digests.json`` from the runs; ``memo-off`` runs
each case with the host memos on and off and exits 1 naming each case
and stream the two runs write differently; ``reference`` is ``check``
with every executor on the DES's reference loop.  ``--src`` points the
runs at another checkout's ``src/`` - the way to generate digests from a
parent commit.  Runs use this process's ``PYTHONHASHSEED`` and
``REPRO_CHECK``; CI runs ``check`` under two hash seeds, and once with
the checker armed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from tests.golden import BY_NAME, CASES, DIGESTS, MEMO_OFF, REFERENCE, \
    REPO, load, moved, run_subprocess

#: Cases run at once, each in its own process.
JOBS = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.golden")
    parser.add_argument("action",
                        choices=("check", "update", "memo-off", "reference"))
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the src/ directory to run (default: this "
                             "checkout's)")
    parser.add_argument("--only", nargs="+", metavar="CASE",
                        choices=sorted(BY_NAME), help="run these cases")
    args = parser.parse_args(argv)

    cases = [BY_NAME[name] for name in args.only] if args.only else CASES

    stored = load() if DIGESTS.exists() else {}

    def run(case):
        start = time.perf_counter()
        src = args.src.resolve()
        if args.action == "memo-off":
            got = run_subprocess(case, src, module=MEMO_OFF, memo_arm=True)
            want = run_subprocess(case, src, memo_arm=True)
        else:
            module = REFERENCE if args.action == "reference" else "repro"
            got = run_subprocess(case, src, module=module)
            want = stored.get(case.name)
        return case, got, want, time.perf_counter() - start

    failed = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(run, cases))
    for case, got, want, seconds in results:
        if args.action == "update":
            stored[case.name] = got
            print(f"{case.name}: {seconds:.1f} s")
        elif want is None:
            failed += 1
            print(f"{case.name}: no stored digest")
        elif moved(want, got):
            failed += 1
            print(f"{case.name}: MOVED {', '.join(moved(want, got))}")
        else:
            print(f"{case.name}: ok ({seconds:.1f} s)")
    if args.action == "update":
        ordered = {case.name: stored[case.name] for case in CASES
                   if case.name in stored}
        DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")
        print(f"{len(results)} cases written to {DIGESTS.name}")
        return 0
    print(f"golden: {len(results) - failed}/{len(results)} cases ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

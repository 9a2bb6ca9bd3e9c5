"""``python -m tests.mutation`` - run the guards against every mutant.

Each mutant is planted in a fresh copy of the repository; every guard
then runs inside that copy and its verdict lands in ``results.json``
(merged, so ``--only`` re-runs some mutants), from
which ``MATRIX.md`` is rendered.  ``flow-parent`` runs the ``flow``
command of an older checkout (``--parent-src``, that checkout's
``src/``) over the mutated tree, for the record; every other guard runs
the copy's own code.

Guards:

* ``lint``: ``repro lint --strict src/repro`` (the invariant rules and
  the flow check);
* ``flow-parent``: the older checkout's ``flow --strict src/repro``
  command, from before the flow check became lint rules (both static
  columns count only findings the unmutated tree does not have);
* ``tier1``: ``pytest -x`` without ``tests/analysis`` (and without the
  corpus and matrix suites, which are columns of their own);
* ``corpus-h1`` / ``corpus-h2``: ``python -m tests.golden check`` under
  ``PYTHONHASHSEED`` 1 and 2;
* ``memo-off``: ``python -m tests.golden memo-off`` (every case with the
  host memos on and off) under ``PYTHONHASHSEED`` 1;
* ``faultsim``: CI's faultsim ``cmp`` arm on one cell (pixel7a, octree,
  seed 5), three runs under hash seeds 1, 2, 1.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from tests.golden import FAULTSIM
from tests.mutation import BY_NAME, MUTANTS, REPO, Mutant

RESULTS = Path(__file__).resolve().parent / "results.json"
MATRIX = Path(__file__).resolve().parent / "MATRIX.md"

#: Per-guard timeout: a mutant that wedges a guard counts as killed.
TIMEOUT_S = 1200

Verdict = Dict[str, object]


def _run(argv: List[str], cwd: Path, src: Path,
         hash_seed: str = "0") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True,
                          timeout=TIMEOUT_S)


Finding = Tuple[str, str, str]

#: tool -> what it reports on the unmutated tree (filled on first use).
_CLEAN: Dict[str, Set[Finding]] = {}


def _findings(tool: str, tree: Path, src: Path) -> Optional[List[dict]]:
    """``tool --strict`` over ``tree``'s package, or ``None`` when the
    tool itself failed."""
    proc = _run(["-m", "repro", tool, "--strict", "--format", "json",
                 "src/repro"], tree, src)
    if proc.returncode == 2:
        return None
    return json.loads(proc.stdout)["findings"] if proc.stdout else []


def _key(finding: dict) -> Finding:
    # No line number: a mutant's edit moves the lines below it.
    return (finding["rule"], Path(finding["path"]).name, finding["message"])


def _tool(tool: str, copy: Path, src: Path, clean_src: Path) -> Verdict:
    """Kills with the findings the unmutated tree does not have (an
    older checkout's flow engine reports some on today's tree)."""
    findings = _findings(tool, copy, src)
    if findings is None:
        return {"killed": True, "detail": "tool error"}
    if tool not in _CLEAN:
        _CLEAN[tool] = {_key(f) for f in
                        _findings(tool, REPO, clean_src) or []}
    new = [f for f in findings if _key(f) not in _CLEAN[tool]]
    where = sorted({f"{f['rule']} {Path(f['path']).name}:{f['line']}"
                    for f in new})
    return {"killed": bool(new), "detail": ", ".join(where)}


def _tier1(copy: Path, _parent: Path) -> Verdict:
    proc = _run(["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--ignore=tests/analysis", "--ignore=tests/golden",
                 "--ignore=tests/mutation"], copy, copy / "src")
    failed = [line.split()[1].split("::")[0] for line in
              proc.stdout.splitlines() if line.startswith(("FAILED",
                                                           "ERROR"))]
    return {"killed": proc.returncode != 0,
            "detail": failed[0] if failed else ""}


def _corpus(action: str,
            hash_seed: str) -> Callable[[Path, Path], Verdict]:
    def guard(copy: Path, _parent: Path) -> Verdict:
        proc = _run(["-m", "tests.golden", action], copy, copy / "src",
                    hash_seed)
        moved = [line.split(":")[0] for line in proc.stdout.splitlines()
                 if ": MOVED" in line]
        return {"killed": proc.returncode != 0,
                "detail": ", ".join(moved)}
    return guard


def _faultsim(copy: Path, _parent: Path) -> Verdict:
    with tempfile.TemporaryDirectory(prefix="faultsim-") as tmp:
        reports = []
        for run, hash_seed in enumerate(("1", "2", "1")):
            out = Path(tmp) / f"f{run}.json"
            proc = _run(["-m", "repro", *FAULTSIM, "--seed", "5", "--out",
                         str(out)], Path(tmp), copy / "src", hash_seed)
            if proc.returncode != 0:
                return {"killed": True, "detail": f"exit {proc.returncode}"}
            reports.append(out)
        same = all(filecmp.cmp(reports[0], other, shallow=False)
                   for other in reports[1:])
    return {"killed": not same, "detail": "" if same else "reports differ"}


GUARDS: Dict[str, Callable[[Path, Path], Verdict]] = {
    "lint": lambda copy, parent: _tool("lint", copy, copy / "src",
                                       REPO / "src"),
    "flow-parent": lambda copy, parent: _tool("flow", copy, parent,
                                              parent),
    "tier1": _tier1,
    "corpus-h1": _corpus("check", "1"),
    "corpus-h2": _corpus("check", "2"),
    "faultsim": _faultsim,
    "memo-off": _corpus("memo-off", "1"),
}
#: Which guards each column of the verdict counts.
PARENT_GUARDS = ("lint", "flow-parent", "tier1", "faultsim")
CHANGE_GUARDS = ("lint", "tier1", "corpus-h1", "corpus-h2", "faultsim",
                 "memo-off")

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".bench_out", "*.pyc")


def plant(mutant: Mutant, workdir: Path) -> Path:
    """A copy of the repository under ``workdir`` with ``mutant`` in."""
    copy = workdir / "repo"
    shutil.copytree(REPO, copy, ignore=_IGNORE)
    target = copy / "src" / "repro" / mutant.file
    target.write_text(mutant.apply(target.read_text()))
    return copy


def render(results: Dict[str, Dict[str, Verdict]]) -> str:
    """The checked-in table (``MATRIX.md``)."""
    def cell(verdict, timing_dependent) -> str:
        if verdict is None:
            return "?"
        if not verdict["killed"]:
            return "–"
        detail = (verdict.get("detail") or "").split(", ")
        if len(detail) > 2:
            detail[2:] = [f"+{len(detail) - 2} more"]
        mark = "≈ timing-dependent" if timing_dependent else "✓"
        return f"{mark} {', '.join(detail)}".strip()

    def killed(mutant, verdicts, guard, parent) -> bool:
        if guard in mutant.timing_dependent:
            return False
        verdict = verdicts[guard]
        if parent and guard == "lint":
            # The parent's lint had no flow rules: count the others only.
            return any(where and not where.startswith("FLOW-") for where
                       in (verdict.get("detail") or "").split(", "))
        return verdict["killed"]

    def column(mutant, verdicts, guards, parent=False) -> str:
        if any(verdicts.get(g) is None for g in guards):
            return "?"
        return "killed" if any(killed(mutant, verdicts, g, parent)
                               for g in guards) else "**survives**"

    head = ["mutant (planted in `src/repro`)", "lint", "flow (parent)",
            "tier-1 w/o `tests/analysis`", "corpus h1",
            "corpus h2", "faultsim `cmp`", "memo-off", "parent", "change"]
    lines = [
        "# Mutation matrix",
        "",
        "Generated by `python -m tests.mutation` (see its docstring for "
        "each guard).",
        "✓ = the guard kills the mutant (with the rule, failing test or "
        "moved corpus cases), ≈ = a kill that hangs on thread timing, "
        "not counted, – = it survives.  *parent* counts the "
        "guards before the golden corpus and with the interprocedural "
        "flow engine; *change* counts the corpus, its memo-off arm and "
        "`lint`, whose flow rules are the per-function check.  The K "
        "rows are key omissions: a memo keyed on less than its entries "
        "depend on.",
        "",
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for mutant in MUTANTS:
        verdicts = results.get(mutant.name, {})
        row = [f"{mutant.name} {mutant.summary} (`{mutant.file}`)"]
        row += [cell(verdicts.get(g), g in mutant.timing_dependent)
                for g in GUARDS]
        row += [column(mutant, verdicts, PARENT_GUARDS, parent=True),
                column(mutant, verdicts, CHANGE_GUARDS)]
        lines.append("| " + " | ".join(row) + " |")
    notes = [f"* **{m.name}**: {m.note}" for m in MUTANTS if m.note]
    if notes:
        lines += ["", "Notes:", "", *notes]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.mutation")
    parser.add_argument("--only", nargs="+", choices=sorted(BY_NAME),
                        metavar="MUTANT")
    parser.add_argument("--parent-src", type=Path, required=True,
                        help="src/ of an older checkout whose `flow` "
                             "command is the flow-parent column")
    args = parser.parse_args(argv)

    results = json.loads(RESULTS.read_text()) if RESULTS.exists() else {}
    mutants = [BY_NAME[n] for n in args.only] if args.only else MUTANTS
    parent = args.parent_src.resolve()
    for mutant in mutants:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = plant(mutant, Path(tmp))
            for guard, run in GUARDS.items():
                try:
                    verdict = run(copy, parent)
                except subprocess.TimeoutExpired:
                    verdict = {"killed": True, "detail": "timeout"}
                results.setdefault(mutant.name, {})[guard] = verdict
                print(f"{mutant.name} {guard}: "
                      f"{'killed' if verdict['killed'] else 'survived'} "
                      f"{verdict['detail']}", flush=True)
                RESULTS.write_text(json.dumps(results, indent=1,
                                              sort_keys=True) + "\n")
    MATRIX.write_text(render(results))
    return 0

if __name__ == "__main__":
    sys.exit(main())

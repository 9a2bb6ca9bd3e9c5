"""The golden corpus: one sha256 per report byte stream the CLI writes.

The reproduction's contract is byte-identical reports (seeded virtual
timers stand in for the paper's hardware ones), so a refactor proves
itself by leaving every digest here unmoved.  A case is one ``repro``
command line; running it in a fresh directory yields its exit code, its
stdout and every file it writes.  ``digests.json`` stores the sha256 of
each.  Stderr is left out: it carries ``report``'s wall-clock "done in"
lines (and the "saved to" notes).

The corpus is CI's one determinism gate, in four arms:

* ``check`` under two hash seeds: every case reproduces its digests;
* ``memo-off``: each case run twice, with the host memos on and off
  (``tests.memo_off``), writes the same bytes both ways;
* ``check`` with ``REPRO_CHECK=1``: ``repro`` exits 1 when the armed
  checker records a concurrency violation, so such a case's ``exit``
  moves;
* ``reference``: each case, run with every executor on the DES's
  reference loop (``tests.runtime.reference_engine``), reproduces its
  digests.

Run ``python -m tests.golden check|update|memo-off|reference`` from the
repository root (see ``__main__``); tier-1 runs a subset of ``check``,
of the memo-off arm and of the reference arm
(``tests/golden/test_golden.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from tests.memo_off import comparable, memos_off

REPO = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Three seeds wherever a command takes ``--seed``.
SEEDS = (7, 8, 9)
#: The small profiling arguments CI and the verify recipes use.
SMALL = ("--repetitions", "2", "--k", "4", "--eval-tasks", "6")
#: CI's faultsim determinism arm, minus the seed.
FAULTSIM = ("faultsim", "--platform", "pixel7a", "--app", "octree",
            *SMALL, "--tasks", "8")

#: The wrappers that run one ``repro`` command another way.
MEMO_OFF = "tests.memo_off"
REFERENCE = "tests.runtime.reference_engine"

#: A digest record: exit code, stdout digest, file digests by path.
Record = Dict[str, object]


@dataclass(frozen=True)
class Case:
    """One ``repro`` command line, run in an empty directory."""

    name: str
    argv: Tuple[str, ...]


def _seeded(name: str, *argv: str, seeds=SEEDS) -> List[Case]:
    return [Case(f"{name}@{seed}", (*argv, "--seed", str(seed)))
            for seed in seeds]


CASES: Tuple[Case, ...] = (
    Case("plan", ("plan", "--platform", "jetson_orin_nano", "--app",
                  "octree", *SMALL, "--out", "plan.json")),
    Case("plan-alexnet", ("plan", "--platform", "pixel7a", "--app",
                          "alexnet-sparse", *SMALL, "--out", "plan.json")),
    Case("profile", ("profile", "--platform", "pixel7a", "--app",
                     "alexnet-sparse", *SMALL, "--mode", "interference",
                     "--out", "profile.json")),
    Case("analyze", ("analyze", "--platform", "jetson_orin_nano",
                     "--app", "octree", *SMALL)),
    Case("run-session", ("run", "--platform", "pixel7a", "--app",
                         "alexnet-sparse", *SMALL, "--session",
                         "session")),
    *_seeded("faultsim", *FAULTSIM, "--out", "faultsim.json",
             seeds=(5, 6, 7)),
    # Retries run out, so tasks are quarantined and the report's
    # ``failures`` list is not empty.
    *_seeded("faultsim-quarantine", *FAULTSIM, "--fail-attempts", "4",
             "--max-attempts", "3", "--out", "faultsim.json",
             seeds=(5, 6, 7)),
    *_seeded("serve", "serve", "--json", "--trace-out", "trace.json",
             "--out", "serve.json"),
    *_seeded("fleet", "fleet", "--json", "--trace-out", "trace.json"),
    *_seeded("traffic-soak", "traffic", "soak", "--json", "--trace-out",
             "traffic-trace.json"),
    *_seeded("top", "top", "--json"),
    *_seeded("submit", "submit", "--co", "2", "--out", "submit.json"),
    *_seeded("submit-cap1", "submit", "--co", "2", "--cap", "1",
             "--out", "submit.json"),
    *_seeded("trace-serve", "trace", "--serve", "--windows", "8",
             "--out", "trace.json"),
    Case("gantt", ("gantt", "--platform", "pixel7a", "--app",
                   "alexnet-sparse", *SMALL, "--tasks", "4", "--width",
                   "40")),
    Case("report", ("report",)),
)

BY_NAME: Dict[str, Case] = {case.name: case for case in CASES}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(exit_code: int, stdout: bytes, workdir: Path,
           memo_arm: bool = False) -> Record:
    """The digest record of one finished run in ``workdir``; for the
    memo-off arm, of each stream as :func:`tests.memo_off.comparable`
    has it."""
    read = comparable if memo_arm else bytes
    files = {
        path.relative_to(workdir).as_posix(): sha256(read(path.read_bytes()))
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return {"exit": exit_code, "stdout": sha256(read(stdout)),
            "files": files}


def run_subprocess(case: Case, src: Path = REPO / "src",
                   hash_seed: Optional[str] = None, module: str = "repro",
                   memo_arm: bool = False) -> Record:
    """Run ``case`` as ``python -m <module>`` in a fresh directory, with
    ``src`` on ``PYTHONPATH`` (another checkout's ``src/`` digests that
    checkout).  ``module`` is ``repro`` or a wrapper that runs the
    command another way (:data:`MEMO_OFF`, :data:`REFERENCE`);
    ``memo_arm`` digests each stream as the memo-off arm compares it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(REPO))))
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        proc = subprocess.run(
            [sys.executable, "-m", module, *case.argv], cwd=tmp, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return record(proc.returncode, proc.stdout, Path(tmp),
                      memo_arm=memo_arm)


@contextlib.contextmanager
def _inside(workdir: Path) -> Iterator[None]:
    before = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(before)


def run_in_process(case: Case, workdir: Path,
                   memos: Optional[bool] = None) -> Record:
    """Run ``case`` through ``repro.cli.main`` in this process, inside
    the empty directory ``workdir`` (stderr is discarded).  ``memos``
    True / False runs it for the memo-off arm, with the host memos on /
    off."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    off = memos_off() if memos is False else contextlib.nullcontext()
    with _inside(workdir), off, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(list(case.argv))
    return record(code, out.getvalue().encode(), workdir,
                  memo_arm=memos is not None)


def load() -> Dict[str, Record]:
    """The stored digests, by case name."""
    with open(DIGESTS) as handle:
        return json.load(handle)


def moved(want: Record, got: Record) -> List[str]:
    """What differs between two records: ``exit``, ``stdout`` and each
    written file's path (missing or extra files included)."""
    out = [key for key in ("exit", "stdout") if want[key] != got[key]]
    want_files, got_files = want["files"], got["files"]
    out += [path for path in sorted(set(want_files) | set(got_files))
            if want_files.get(path) != got_files.get(path)]
    return out

"""The mutation matrix: which guard kills which planted determinism bug.

Every guard this repository runs - the invariant linter, the flow
check, tier-1, the golden corpus, CI's faultsim ``cmp`` arm - earns its
place by killing a mutant no other guard kills (DESIGN.md §10).  A
mutant is data: a file under ``src/repro`` and one or more (old text,
new text) edits, each applied to the first occurrence of its old text.
``python -m tests.mutation`` plants each one in a temporary copy of the
repository, runs every guard there, and renders ``MATRIX.md`` from the
recorded verdicts (``results.json``).  Tier-1 re-checks the static
column in-process (``tests/mutation/test_static_column.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

Edit = Tuple[str, str]


@dataclass(frozen=True)
class Mutant:
    """One planted change: ``edits`` applied to ``src/repro/<file>``."""

    name: str
    summary: str
    file: str
    edits: Tuple[Edit, ...]
    #: The rule ``repro flow`` reports on the mutated module, if it
    #: kills the mutant.
    flow_rule: Optional[str] = None
    #: What the verdicts alone do not say (rendered under the table).
    note: str = ""

    def apply(self, source: str) -> str:
        """``source`` with every edit applied (each must match)."""
        for old, new in self.edits:
            if old not in source:
                raise ValueError(f"{self.name}: {old!r} not in {self.file}")
            source = source.replace(old, new, 1)
        return source


_STAMP = ("\n\ndef _stamp():\n"
          "    return time.perf_counter()\n")

MUTANTS: Tuple[Mutant, ...] = (
    Mutant("M1", "`time.perf_counter()` in `FleetReport.to_dict`",
           "fleet/metrics.py", (
               ("from dataclasses import dataclass\n",
                "import time\nfrom dataclasses import dataclass\n"),
               ('            "seed": self.seed,\n',
                '            "seed": self.seed,\n'
                '            "generated_s": time.perf_counter(),\n'),
           ), flow_rule="FLOW-WALL-CLOCK"),
    Mutant("M2", "a helper's `perf_counter()` in the session's autotune "
           "artifact", "core/session.py", (
               ("import math\n", "import math\nimport time\n"),
               ("from repro.stage import Application\n",
                "from repro.stage import Application" + _STAMP),
               ('                "rank": entry.rank,\n',
                '                "rank": entry.rank,\n'
                '                "measured_at_s": _stamp(),\n'),
           )),
    Mutant("M3", "the same helper in the traffic driver's per-tick entry",
           "traffic/driver.py", (
               ("import functools\n", "import functools\nimport time\n"),
               ("from repro.stage import Application\n",
                "from repro.stage import Application" + _STAMP),
               ('                    "backlog": backlog,\n',
                '                    "backlog": backlog,\n'
                '                    "wall_s": _stamp(),\n'),
           )),
    Mutant("M4", "`TrafficGenerator._rng` becomes a bare `default_rng()`",
           "traffic/generator.py", (
               ('        return np.random.default_rng(\n'
                '            _stable_seed(self.seed, "traffic", *key)\n'
                '        )\n',
                "        return np.random.default_rng()\n"),
           ), note="The parent's flow engine reports it on lines that "
           "are not the mutant's, through its name-keyed field table."),
    Mutant("M5", "`CircuitBreaker` draws from a bare `default_rng()`",
           "fleet/health.py", (
               ("self._rng = np.random.default_rng(seed)",
                "self._rng = np.random.default_rng()"),
           ), note="As M4."),
    Mutant("M6", "failover's drain iterates `{t.name for t in batch}`",
           "fleet/router.py", (
               ("        for tenant in batch:\n            if shard.alive:",
                "        for tenant in [self.tenants[n]\n"
                "                       for n in {t.name for t in batch}]:\n"
                "            if shard.alive:"),
           )),
    Mutant("M7", "`os.environ.get` in `ServeReport.to_dict`",
           "serve/metrics.py", (
               ("from dataclasses import dataclass, field\n",
                "import os\nfrom dataclasses import dataclass, field\n"),
               ('            "platform": self.platform,\n',
                '            "platform": os.environ.get("REPRO_PLATFORM",\n'
                '                                       self.platform),\n'),
           ), flow_rule="FLOW-ENV-READ"),
    Mutant("M8", "`threading.get_ident()` in `FaultEvent.to_dict`",
           "runtime/faults.py", (
               ("import itertools\n", "import itertools\nimport threading\n"),
               ('            "attempt": self.attempt, "detail": self.detail,\n',
                '            "attempt": self.attempt, "detail": self.detail,\n'
                '            "thread": threading.get_ident(),\n'),
           ), flow_rule="FLOW-THREAD-ID"),
    Mutant("M9", "`row.latency_s + tick` into `note_window` (ticks and "
           "virtual seconds mixed)", "fleet/router.py", (
               ("self.monitor.note_window(shard.name, name, row.latency_s)",
                "self.monitor.note_window(shard.name, name,\n"
                "                                     row.latency_s + tick)"),
           )),
    Mutant("M10", "`list(record.partition)` in the admit event",
           "serve/server.py", (
               ("partition=sorted(record.partition),",
                "partition=list(record.partition),"),
           ), note="Open gap.  The corpus kills it only because, under "
           "hash seeds 1 and 2, one case (`submit@8`) admits a "
           "two-class partition whose set order is not its sorted "
           "order; under other hash seeds it can pass every guard "
           "(2 of 12 hash seeds move `submit --co 2`)."),
    Mutant("M11", "`time.perf_counter()` in `TaskFailure.to_dict` (only "
           "a quarantined task reaches it)", "runtime/faults.py", (
               ('            "error": self.error,\n',
                '            "error": self.error,\n'
                '            "quarantined_s": time.perf_counter(),\n'),
           ), flow_rule="FLOW-WALL-CLOCK", note="The `faultsim --out` "
           "report's `failures` list is empty unless a task is "
           "quarantined (`--fail-attempts` above `--max-attempts`), which "
           "no corpus case, CI step or tier-1 byte comparison runs; the "
           "flow check is the only guard that sees it."),
    Mutant("L-WALL-CLOCK", "an SPSC queue deadline on `time.time()`",
           "runtime/spsc.py", (
               ("else time.monotonic() + timeout",
                "else time.time() + timeout"),
               ("remaining = deadline - time.monotonic()",
                "remaining = deadline - time.time()"),
           )),
    Mutant("L-GLOBAL-RNG", "retry-backoff jitter from the global numpy "
           "RNG", "runtime/faults.py", (
               ("return float(self._rng.random())",
                "return float(np.random.random())"),
           )),
    Mutant("L-RAW-ARTIFACT-WRITE", "`trace --export gantt --out` through a "
           "raw `open(..., \"w\")`", "cli.py", (
               ('        atomic_write_text(args.out, chart + "\\n")\n',
                '        with open(args.out, "w") as handle:\n'
                '            handle.write(chart + "\\n")\n'),
           )),
    Mutant("L-BROAD-EXCEPT", "a fatal kernel error swallowed by the "
           "dispatcher's broad handler", "runtime/pipeline.py", (
               ("if classify_failure(exc) == FAILURE_FATAL:\n"
                "                    raise\n",
                "if classify_failure(exc) == FAILURE_FATAL:\n"
                "                    return\n"),
           )),
    Mutant("L-UNSUPERVISED-THREAD", "`repro report` generated on a "
           "helper thread", "cli.py", (
               ("import sys\n", "import sys\nimport threading\n"),
               ("    text = generate_report(scale=scale, progress=lambda "
                "line: print(\n        line, file=sys.stderr))\n"
                "    print(text)\n",
                "    done = {}\n"
                "    worker = threading.Thread(target=lambda: done.update(\n"
                "        text=generate_report(scale=scale, progress=lambda "
                "line: print(\n            line, file=sys.stderr))))\n"
                "    worker.start()\n"
                "    worker.join()\n"
                "    print(done[\"text\"])\n"),
           )),
    Mutant("L-UNTAGGED-SPAN", "the DES builds its spans with `Span(...)`",
           "runtime/simulator.py", (
               ("spans.append(record_span(", "spans.append(Span("),
           )),
    Mutant("S-DROP-SORT", "PR 26's dropped `sort` of the threaded fault "
           "log", "runtime/pipeline.py", (
               ("            fault_events=(tuple(sorted(\n"
                "                self.fault_injector.events,\n"
                "                key=lambda event: (event.task_id, "
                "event.stage_index),\n"
                "            )) if",
                "            fault_events=(tuple(\n"
                "                self.fault_injector.events,\n"
                "            ) if"),
           )),
    Mutant("S-ID-CACHE", "the deployment table keyed by `id(application)`",
           "core/plan_cache.py", (
               ("key = (application, schedule.assignments)",
                "key = (id(application), schedule.assignments)"),
           ), note="Equivalent mutant: the cached `Deployment` holds the "
           "executor, which holds the application, so its `id` cannot be "
           "reused while the entry lives.  No guard can kill it."),
    Mutant("C-ULP", "one ulp on pixel7a's big-cluster clock "
           "(2.85 -> 2.8500000000000005 GHz)", "soc/platforms.py", (
               ("freq_ghz=2.85,", "freq_ghz=2.8500000000000005,"),
           )),
    Mutant("C-SORTED", "`FleetReport.to_dict` lists tenants in reverse "
           "order", "fleet/metrics.py", (
               ("for name in sorted(self.tenants)",
                "for name in sorted(self.tenants, reverse=True)"),
           )),
)

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}

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
    #: The flow rule ``repro lint`` reports on the mutated module, if
    #: it kills the mutant.
    flow_rule: Optional[str] = None
    #: What the verdicts alone do not say (rendered under the table).
    note: str = ""
    #: Guards whose verdict on this mutant hangs on thread timing: the
    #: matrix shows them but counts no kill from them.
    timing_dependent: Tuple[str, ...] = ()

    def apply(self, source: str) -> str:
        """``source`` with every edit applied (each must match)."""
        for old, new in self.edits:
            if old not in source:
                raise ValueError(f"{self.name}: {old!r} not in {self.file}")
            source = source.replace(old, new, 1)
        return source


_STAMP = ("\n\ndef _stamp():\n"
          "    return time.perf_counter()\n")

#: The three rows planted on the deleted ``GLOBAL-RNG`` lint rule.
_GLOBAL_RNG_HISTORY = ("Its `lint` cell is the `GLOBAL-RNG` rule's "
                       "verdict, recorded before tier-1's resume tests "
                       "killed L-GLOBAL-RNG-RESUME and the rule was "
                       "deleted.")

MUTANTS: Tuple[Mutant, ...] = (
    Mutant("M1", "`time.perf_counter()` in `FleetReport.to_dict`",
           "fleet/metrics.py", (
               ("from dataclasses import dataclass, field\n",
                "import time\nfrom dataclasses import dataclass, field\n"),
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
           ), note="As M4.  Its OS-entropy draws decide whether a "
           "breaker probe moves `fleet@8`'s bytes, so a corpus or "
           "memo-off run can pass: one re-run killed it under hash seed "
           "1 only, the next under the memo-off arm only."),
    Mutant("M6", "failover's drain iterates `{t.name for t in batch}`",
           "fleet/router.py", (
               ("        for tenant in batch:\n            if shard.alive:",
                "        for tenant in [self.tenants[n]\n"
                "                       for n in {t.name for t in batch}]:\n"
                "            if shard.alive:"),
           )),
    Mutant("M7", "`os.environ.get` in `FleetTenantMetrics.to_dict`",
           "fleet/metrics.py", (
               ("from dataclasses import dataclass, field\n",
                "import os\nfrom dataclasses import dataclass, field\n"),
               ('            "tenant": self.tenant,\n',
                '            "tenant": os.environ.get("REPRO_TENANT",\n'
                '                                     self.tenant),\n'),
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
               ("partition=record.partition,",
                "partition=list(record.partition),"),
           ), note="Equivalent mutant, closed by construction: "
           "`PlacementMap.assign` hands out a partition as a sorted "
           "tuple, so no set order is left to leak (before, only "
           "`submit@8` under hash seeds 1 and 2 caught it)."),
    Mutant("M11", "`time.perf_counter()` in `TaskFailure.to_dict` (only "
           "a quarantined task reaches it)", "runtime/faults.py", (
               ("import itertools\n", "import itertools\nimport time\n"),
               ('            "error": self.error,\n',
                '            "error": self.error,\n'
                '            "quarantined_s": time.perf_counter(),\n'),
           ), flow_rule="FLOW-WALL-CLOCK", note="The `faultsim --out` "
           "report's `failures` list is empty unless a task is "
           "quarantined (`--fail-attempts` above `--max-attempts`).  "
           "Only the corpus's `faultsim-quarantine` cases run that, so "
           "they and the flow rule are the guards that see it."),
    Mutant("L-WALL-CLOCK", "an SPSC queue deadline on `time.time()`",
           "runtime/spsc.py", (
               ("else time.monotonic() + timeout",
                "else time.time() + timeout"),
               ("remaining = deadline - time.monotonic()",
                "remaining = deadline - time.time()"),
           )),
    Mutant("L-GLOBAL-RNG", "`FaultPlan.random` draws from the global "
           "numpy RNG, seeded from `seed`", "runtime/faults.py", (
               ("        rng = np.random.default_rng(seed)\n",
                "        np.random.seed(seed)\n        rng = np.random\n"),
           ), note=_GLOBAL_RNG_HISTORY),
    Mutant("L-GLOBAL-RNG-PASS", "the profiler's timer draws a pass's "
           "cells from one global stream, seeded per pass",
           "soc/timer.py", (
               ("        draws = lognormal_draws(\n"
                "            [_stable_seed(self.seed, *key) for _, key in "
                "cells],\n"
                "            self.sigma, count)\n",
                "        np.random.seed(self.seed)\n"
                "        draws = np.random.lognormal(\n"
                "            -0.5 * self.sigma**2, self.sigma, "
                "(len(cells), count))\n"),
           ), note="A resumed session measures only the cells it has no "
           "checkpoint for, so its pass draws a prefix of the stream the "
           "uninterrupted pass drew, in other positions.  "
           + _GLOBAL_RNG_HISTORY),
    Mutant("L-GLOBAL-RNG-SHARED", "every timer observation draws from "
           "one global stream, seeded when the platform is built",
           "soc/timer.py", (
               ("        self.sigma = sigma\n        self.seed = seed\n",
                "        self.sigma = sigma\n        self.seed = seed\n"
                "        np.random.seed(seed)\n"),
               ("        seed = _stable_seed(self.seed, *key)\n"
                "        return np.random.Generator(np.random.PCG64(seed))\n",
                "        return np.random.mtrand._rand\n"),
           ), note="A measurement's draw depends on how many came before "
           "it in the process, so an autotune round resumed from a "
           "checkpoint measures its candidates with other draws.  "
           + _GLOBAL_RNG_HISTORY),
    Mutant("L-GLOBAL-RNG-RESUME", "a profiling cell read back from a "
           "checkpoint is re-dithered by one global numpy draw",
           "core/session.py", (
               ("from typing import Any, Callable, Dict, List, Optional, "
                "Tuple\n",
                "from typing import Any, Callable, Dict, List, Optional, "
                "Tuple\n\nimport numpy as np\n"),
               ("        if cell is not None:\n",
                "        if cell is not None:\n"
                "            cell = (cell[0] * np.random.lognormal(0.0, "
                "1e-3), cell[1])\n"),
           ), note="Only a resumed session reads a cell back, so a fresh "
           "run's bytes do not move; the resumed candidate log and "
           "schedule do."),
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
    Mutant("L-BROAD-EXCEPT-CHECKPOINT", "the session's checkpoint "
           "reader treats any exception as a corrupt unit",
           "core/session.py", (
               ("        except (SerializationError, KeyError, TypeError,\n"
                "                ValueError) as exc:\n",
                "        except Exception as exc:\n"),
           ), note="A bug in a checkpoint parser is re-measured as a "
           "corrupt unit instead of failing; no test raises anything "
           "but the four listed errors there."),
    Mutant("L-BROAD-EXCEPT-MAIN", "`main` renders any exception as a "
           "JSON error envelope", "cli.py", (
               ("    except OSError as exc:\n",
                "    except Exception as exc:\n"),
           ), note="A programming error exits 2 with a one-line "
           "envelope and no traceback; no test drives an unexpected "
           "exception through `main`."),
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
           ), timing_dependent=("memo-off",), note="The memo-off arm "
           "compares two runs of each case, and the unsorted fault log "
           "differs between them only when the two dispatchers append "
           "in another order: two matrix runs killed it on different "
           "`faultsim-quarantine` seeds.  The cell is not a kill."),
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
    # Key omissions: a memo keyed on less than its entries depend on.
    Mutant("K-RELEASE", "`release` does not bump the placement epoch",
           "serve/placement.py", (
               ("        del self._partitions[tenant]\n"
                "        self.epoch += 1\n",
                "        del self._partitions[tenant]\n"),
           )),
    Mutant("K-PREFERRED", "`pricing_key` without `preferred_classes`",
           "serve/tenant.py", (
               ("return (self.application.name, self.required_classes,\n"
                "                self.preferred_classes)",
                "return (self.application.name, self.required_classes)"),
           )),
    Mutant("K-DRIFTS", "the co-load view stamp without the active drifts",
           "serve/server.py", (
               ("stamp = (self.placement.epoch, active)",
                "stamp = self.placement.epoch"),
           )),
    Mutant("K-BREAKER", "a router choice that ignores the breaker gate",
           "fleet/router.py", (
               ("ranking = self._choices.lookup(fleet, spec.pricing_key)",
                "stamp = tuple(state and state[:2] for state in fleet)\n"
                "        ranking = self._choices.lookup(stamp, "
                "spec.pricing_key)"),
               ("self._choices.store(fleet, spec.pricing_key, ranking)",
                "self._choices.store(stamp, spec.pricing_key, ranking)"),
           )),
    Mutant("K-GENERATION", "a router choice that ignores the shard "
           "generation", "fleet/router.py", (
               ("ranking = self._choices.lookup(fleet, spec.pricing_key)",
                "stamp = tuple(state and state[1:] for state in fleet)\n"
                "        ranking = self._choices.lookup(stamp, "
                "spec.pricing_key)"),
               ("self._choices.store(fleet, spec.pricing_key, ranking)",
                "self._choices.store(stamp, spec.pricing_key, ranking)"),
           )),
    Mutant("K-NTASKS", "a remembered window keyed without `n_tasks`",
           "core/plan_cache.py", (
               ("key = (external.key, n_tasks)", "key = external.key"),
               ("self._results[(external.key, n_tasks)] = result",
                "self._results[external.key] = result"),
           )),
    Mutant("K-APP-NAME", "the deployment table keyed by application name",
           "core/plan_cache.py", (
               ("key = (application, schedule.assignments)",
                "key = (application.name, schedule.assignments)"),
           )),
)

BY_NAME = {mutant.name: mutant for mutant in MUTANTS}

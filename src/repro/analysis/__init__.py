"""Correctness tooling for the BT runtime (extension).

PRs 1-2 made the runtime survive faults and crashes; the invariants
they rely on - monotonic deadlines, coordinate-keyed RNG, atomic
artifact writes, single-producer/single-consumer queue discipline,
supervised thread creation - were enforced only by convention.  This
package machine-checks them:

* **Static analyzer** (:mod:`repro.analysis.linter`, ``python -m
  repro lint``): AST rules over the source tree with a rule registry,
  per-line suppression comments and text/JSON output.  The rules are
  the per-statement invariants (:mod:`repro.analysis.rules`) and a
  per-function taint check from nondeterminism sources to report
  sinks (:mod:`repro.analysis.flow`).
* **Race driver** (:mod:`repro.analysis.race`, ``python -m repro
  race``): runs a threaded pipeline under the dynamic concurrency
  checker, which lives next to what it guards
  (:mod:`repro.runtime.checks`, :mod:`repro.runtime.lock_order`).

Only the CLI imports this package; nothing in the runtime, planner or
serving layers does, so a process that never lints never loads it.
"""

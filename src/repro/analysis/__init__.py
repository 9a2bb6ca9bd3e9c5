"""Correctness tooling for the BT runtime (extension).

PRs 1-2 made the runtime survive faults and crashes; the invariants
they rely on - monotonic deadlines, coordinate-keyed RNG, atomic
artifact writes, single-producer/single-consumer queue discipline,
supervised thread creation - were enforced only by convention.  This
package machine-checks them:

* **Static invariant linter** (:mod:`repro.analysis.linter`,
  ``python -m repro lint``): AST rules over the source tree with a
  rule registry, per-line suppression comments and text/JSON output.
* **Dynamic concurrency checker** (:mod:`repro.analysis.runtime_checks`,
  opt-in via ``REPRO_CHECK=1``, driven by ``python -m repro race``):
  thread-identity binding on :class:`~repro.runtime.spsc.SpscQueue`,
  use-after-release and aliasing checks on TaskObject/UsmBuffer, and a
  lock-order tracker that reports potential deadlock cycles.

Import note: this package must stay import-light - the runtime modules
(`spsc`, `usm`, ...) import :mod:`repro.analysis.runtime_checks` and
:mod:`repro.analysis.lock_order` at module load, so nothing here may
import back into :mod:`repro.runtime` (the ``race`` scenario runner is
loaded lazily by the CLI for exactly this reason), and the static
linter's re-exports load on first use (every process start would
otherwise pay for a linter it never runs).
"""

import importlib

from repro.analysis.lock_order import (
    LockOrderTracker,
    TrackedLock,
    checked_lock,
)
from repro.analysis.runtime_checks import (
    BUFFER_ALIAS,
    LOCK_ORDER,
    SPSC_CONSUMER,
    SPSC_PRODUCER,
    USE_AFTER_RELEASE,
    Violation,
    ViolationLog,
    checks_enabled,
    collecting,
    disable_checks,
    enable_checks,
    global_log,
    record_violation,
)

_LAZY = {
    "LintReport": "linter", "collect_files": "linter",
    "lint_paths": "linter", "lint_source": "linter",
    "render_lint_json": "report", "render_lint_text": "report",
    "Finding": "rules", "all_rules": "rules", "get_rule": "rules",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "BUFFER_ALIAS",
    "Finding",
    "LOCK_ORDER",
    "LintReport",
    "LockOrderTracker",
    "SPSC_CONSUMER",
    "SPSC_PRODUCER",
    "TrackedLock",
    "USE_AFTER_RELEASE",
    "Violation",
    "ViolationLog",
    "all_rules",
    "checked_lock",
    "checks_enabled",
    "collect_files",
    "collecting",
    "disable_checks",
    "enable_checks",
    "get_rule",
    "global_log",
    "lint_paths",
    "lint_source",
    "record_violation",
    "render_lint_json",
    "render_lint_text",
]

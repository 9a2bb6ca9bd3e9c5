"""Dynamic concurrency-invariant checker (opt-in, ``REPRO_CHECK=1``).

The threaded BT-Implementer back-end is correct only under discipline
that Python cannot express in types: every :class:`SpscQueue` has
exactly one producer and one consumer thread, recycled TaskObjects and
UsmBuffers are never touched after retirement, and no two buffers of
one task alias the same storage.  This module is the recording side of
the checker: instrumented runtime objects call in when they observe a
violation, and the violations accumulate in a thread-safe log that
tests, ``python -m repro race`` and CI turn into structured reports.

The checker is **opt-in**: with ``REPRO_CHECK`` unset (or ``"0"``)
every hook is a cheap flag test and nothing is recorded.  Lock-order
tracking additionally binds at *object construction* time (see
:func:`repro.runtime.lock_order.checked_lock`), so the environment
variable must be set before the runtime objects are created - true for
a fresh process (pytest, the CLI) and for tests that use
:func:`collecting`.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Tuple

#: Environment variable that opts a process into the checker.
CHECK_ENV = "REPRO_CHECK"

# Violation kinds.
SPSC_PRODUCER = "spsc-multi-producer"
SPSC_CONSUMER = "spsc-multi-consumer"
USE_AFTER_RELEASE = "use-after-release"
BUFFER_ALIAS = "buffer-alias"
LOCK_ORDER = "lock-order-cycle"

#: Module-level flag the runtime hot paths read directly; mutated only
#: through :func:`enable_checks` / :func:`disable_checks`.
ENABLED = os.environ.get(CHECK_ENV, "0") not in ("", "0")


def checks_enabled() -> bool:
    """Whether the dynamic checker is currently recording."""
    return ENABLED


def enable_checks() -> None:
    """Turn the checker on for this process (tests, the race runner)."""
    global ENABLED
    ENABLED = True


def disable_checks() -> None:
    """Turn the checker off (recording stops; instrumentation stays)."""
    global ENABLED
    ENABLED = False


@dataclass(frozen=True)
class Violation:
    """One observed breach of a runtime concurrency invariant.

    Attributes:
        kind: One of the module's kind constants.
        where: The object involved (queue name, buffer name, lock name).
        detail: Human-readable description of what was observed.
        thread: Name of the thread that tripped the check.
    """

    kind: str
    where: str
    detail: str
    thread: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the violation."""
        return {
            "kind": self.kind, "where": self.where,
            "detail": self.detail, "thread": self.thread,
        }


@dataclass
class ViolationLog:
    """Thread-safe, append-only log of observed violations."""

    _violations: List[Violation] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, violation: Violation) -> None:
        """Append one violation (thread-safe)."""
        with self._lock:
            self._violations.append(violation)

    def __len__(self) -> int:
        with self._lock:
            return len(self._violations)

    def snapshot(self) -> Tuple[Violation, ...]:
        """Every violation recorded so far, oldest first."""
        with self._lock:
            return tuple(self._violations)

    def since(self, index: int) -> Tuple[Violation, ...]:
        """Violations recorded after the first ``index`` entries."""
        with self._lock:
            return tuple(self._violations[index:])

    def clear(self) -> None:
        """Forget every recorded violation."""
        with self._lock:
            self._violations.clear()

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for violation in self.snapshot():
            out[violation.kind] = out.get(violation.kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the full log."""
        snapshot = self.snapshot()
        return {
            "violations": [v.to_dict() for v in snapshot],
            "counts": self.counts,
            "total": len(snapshot),
        }


#: Process-wide log; swapped out temporarily by :func:`collecting`.
_GLOBAL_LOG = ViolationLog()
_active_log = _GLOBAL_LOG


def global_log() -> ViolationLog:
    """The process-wide violation log (what CI gates on)."""
    return _GLOBAL_LOG


def record_violation(kind: str, where: str, detail: str) -> None:
    """Record one violation into the active log (no-op when disabled)."""
    if not ENABLED:
        return
    _active_log.record(Violation(
        kind=kind, where=where, detail=detail,
        thread=threading.current_thread().name,
    ))


@contextmanager
def collecting() -> Iterator[ViolationLog]:
    """Collect violations into a fresh local log with the checker
    forced on, restoring both on exit.

    Tests that *deliberately* violate an invariant use this so the
    seeded violations never pollute the process-wide log that the
    instrumented CI run gates on.
    """
    global _active_log, ENABLED
    local = ViolationLog()
    previous_log, previous_enabled = _active_log, ENABLED
    _active_log = local
    ENABLED = True
    try:
        yield local
    finally:
        _active_log = previous_log
        ENABLED = previous_enabled

"""Lock-order tracking and potential-deadlock detection (opt-in).

Classic lock-order analysis: every time a thread *attempts* to acquire
a tracked lock while holding others, the tracker adds "held -> wanted"
edges to a global acquisition-order graph.  If adding an edge closes a
cycle, two code paths take the same locks in opposite orders - a
potential deadlock even if this particular run never wedged - and a
``lock-order-cycle`` violation is recorded.

Edges are added at the acquisition *attempt* (before blocking), so an
actual deadlock is still reported rather than silently hanging the
detector.  Condition variables built on a :class:`TrackedLock` are
tracked through their ``wait()`` release/re-acquire cycle for free,
because :class:`threading.Condition` drives the lock through the same
``acquire``/``release`` entry points.

Tracking binds at lock *construction*: :func:`checked_lock` returns a
plain ``threading.Lock`` when the checker is disabled, so the hot paths
pay nothing unless ``REPRO_CHECK=1`` was set when the runtime objects
were built.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set, Union

from repro.runtime import checks as _checks


class LockOrderTracker:
    """Global acquisition-order graph over named locks."""

    def __init__(self) -> None:
        # Internal mutex only; deliberately untracked.
        self._mutex = threading.Lock()
        self._held: Dict[int, List[str]] = {}
        self._edges: Dict[str, Set[str]] = {}
        self._reported: Set[frozenset] = set()

    # -- lock side -----------------------------------------------------
    def note_acquiring(self, name: str) -> None:
        """A thread is about to (possibly block to) acquire ``name``."""
        ident = threading.get_ident()
        with self._mutex:
            held = self._held.get(ident, ())
            for other in held:
                if other == name:
                    continue  # condition re-acquire of the same lock
                self._edges.setdefault(other, set()).add(name)
                if self._reaches(name, other):
                    self._report_cycle(other, name)

    def note_acquired(self, name: str) -> None:
        """Push ``name`` onto the calling thread's held stack."""
        ident = threading.get_ident()
        with self._mutex:
            self._held.setdefault(ident, []).append(name)

    def note_released(self, name: str) -> None:
        """Pop ``name`` off the calling thread's held stack."""
        ident = threading.get_ident()
        with self._mutex:
            held = self._held.get(ident)
            if held and name in held:
                held.reverse()
                held.remove(name)  # drop the most recent acquisition
                held.reverse()

    # -- graph side ----------------------------------------------------
    def _reaches(self, start: str, goal: str) -> bool:
        """Whether ``goal`` is reachable from ``start`` in the graph."""
        stack, seen = [start], set()
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
        return False

    def _report_cycle(self, held: str, wanted: str) -> None:
        signature = frozenset((held, wanted))
        if signature in self._reported:
            return
        self._reported.add(signature)
        _checks.record_violation(
            _checks.LOCK_ORDER, where=wanted,
            detail=(f"acquiring {wanted!r} while holding {held!r}, but "
                    f"the opposite order {wanted!r} -> {held!r} was also "
                    "observed: potential deadlock cycle"),
        )

    def edges(self) -> Dict[str, Set[str]]:
        """Snapshot of the acquisition-order graph (for reports)."""
        with self._mutex:
            return {a: set(bs) for a, bs in self._edges.items()}


_TRACKER = LockOrderTracker()


class TrackedLock:
    """A ``threading.Lock`` veneer that feeds the order tracker.

    Exposes the ``acquire``/``release``/context-manager protocol that
    ``threading.Condition`` requires of a custom lock, so conditions
    built on it are tracked through ``wait()`` as well.
    """

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """:meth:`threading.Lock.acquire`, noting the lock order."""
        _TRACKER.note_acquiring(self.name)
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            _TRACKER.note_acquired(self.name)
        return acquired

    def release(self) -> None:
        """:meth:`threading.Lock.release`, noting the release."""
        self._lock.release()
        _TRACKER.note_released(self.name)

    def locked(self) -> bool:
        """Whether the lock is held (by any thread)."""
        return self._lock.locked()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TrackedLock({self.name!r})"


def checked_lock(name: str) -> Union[threading.Lock, TrackedLock]:
    """A lock for runtime objects: tracked when the checker is enabled
    at construction time, a plain ``threading.Lock`` otherwise."""
    if _checks.ENABLED:
        return TrackedLock(name)
    return threading.Lock()

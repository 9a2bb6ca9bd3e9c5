"""Bounded flight recorder: the last N events before a crash.

Postmortems after a kernel fault or an aborted soak need context -
which faults fired, which retries followed, which tenants were admitted
- but an unbounded event log would defeat the runtime's own memory
discipline.  The flight recorder is a fixed-capacity ring buffer: the
fault log (and any other subsystem) :meth:`~FlightRecorder.record` into
it, and the failure paths dump its :meth:`~FlightRecorder.tail` into
``FaultReport.flight_tail`` and ``TrafficError.flight_tail`` so the
last moments before the failure travel with the diagnostic.

Entries hold only deterministic, JSON-serializable fields (no wall
time); the monotonically increasing ``seq`` gives a total order even
after the ring wraps.  Disabled by default like the other instruments.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional

DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Ring buffer of the last ``capacity`` recorded events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("flight recorder capacity must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._seq = 0

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event; the oldest entry falls off at capacity."""
        if not self.enabled:
            return
        with self._lock:
            entry = {"seq": self._seq, "kind": kind}
            for key in sorted(fields):
                entry[key] = fields[key]
            self._seq += 1
            self._ring.append(entry)

    def tail(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` events (all buffered ones if None)."""
        with self._lock:
            entries = list(self._ring)
        if n is not None:
            entries = entries[-n:]
        return [dict(e) for e in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


_GLOBAL = FlightRecorder(enabled=False)


def recorder() -> FlightRecorder:
    """The process-global flight recorder; disabled unless capturing."""
    return _GLOBAL


def set_recorder(instance: FlightRecorder) -> FlightRecorder:
    """Install ``instance`` as the global recorder; returns the old one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = instance
    return previous

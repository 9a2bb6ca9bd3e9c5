"""Bounded per-tick time-series store behind the metrics registry.

Counters and gauges answer "how much, in total" and "what, right now";
fleet debugging also needs "when did it change" - which tick a shard
went DEGRADED, how the backlog grew through a burst, when an offender's
blame spiked.  This store keeps one bounded ring buffer per named
series of ``(tick, value)`` points, so long soaks retain the recent
window of every series without unbounded growth.

Ticks are the deterministic control-plane clock (fleet/traffic tick
indices), never wall time, so snapshots are byte-identical across
seeded runs.  Like the other instruments the store only exists when the
enclosing :class:`~repro.obs.metrics.MetricsRegistry` is enabled; it
rides into ``snapshot()["series"]`` and from there into every exported
Perfetto trace (``otherData.metrics``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Tuple

DEFAULT_CAPACITY = 512


class TimeSeriesStore:
    """Named ring buffers of ``(tick, value)`` points."""

    def __init__(self, capacity_per_series: int = DEFAULT_CAPACITY) -> None:
        if capacity_per_series <= 0:
            raise ValueError("series capacity must be positive")
        self.capacity_per_series = capacity_per_series
        self._lock = threading.Lock()
        self._series: Dict[str, Deque[Tuple[int, float]]] = {}

    def point(self, name: str, tick: int, value: float) -> None:
        """Append one point; the oldest falls off at capacity."""
        with self._lock:
            series = self._series.get(name)
            if series is None:
                series = deque(maxlen=self.capacity_per_series)
                self._series[name] = series
            series.append((int(tick), float(value)))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def series(self, name: str) -> List[Tuple[int, float]]:
        """All retained points of ``name`` in tick order."""
        with self._lock:
            return list(self._series.get(name, ()))

    def window(
        self, name: str, start_tick: int, end_tick: int
    ) -> List[Tuple[int, float]]:
        """Points of ``name`` with ``start_tick <= tick < end_tick``."""
        return [
            (tick, value)
            for tick, value in self.series(name)
            if start_tick <= tick < end_tick
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def snapshot(self) -> Dict[str, List[List[float]]]:
        """Deterministic dump: sorted names, points as ``[tick, value]``."""
        with self._lock:
            items = {k: list(v) for k, v in self._series.items()}
        return {
            name: [[tick, value] for tick, value in items[name]]
            for name in sorted(items)
        }

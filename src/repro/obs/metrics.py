"""Process-wide metrics registry: counters, gauges, histograms.

Complements the tracer with aggregates that don't need a timeline:
``retry.count``, ``admission.rejects``, ``solver.invocations``,
``spsc.queue_depth`` and friends.  Naming convention is
``<subsystem>.<noun>`` in lowercase dotted form - see
``docs/architecture.md`` ("Observability").

Like the tracer, the global registry is **disabled by default**; every
instrumentation site guards on ``metrics().enabled`` so uninstrumented
runs pay nothing.  When enabled, :func:`repro.core.serialization.
write_json_report` snapshots the registry into every JSON report it
writes, so a soak report carries its own counters.

Snapshots are deterministic: keys sort lexicographically and histogram
summaries derive only from the observed values (no wall time).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.timeseries import TimeSeriesStore


def percentile(samples: Sequence[float], q: float) -> float:
    """Canonical linear-interpolation percentile (numpy's default).

    The single implementation behind every report quantile
    (``serve.metrics`` re-exports it).  Raises a structured
    :class:`~repro.errors.ReproError` on an empty sample set or an
    out-of-range ``q`` rather than returning a silent sentinel.
    """
    if not samples:
        raise ReproError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ReproError(f"percentile q={q} out of [0, 100]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """Counters, gauges and histograms behind one lock.

    Disabled instances short-circuit every method, so call sites may
    either guard on :attr:`enabled` themselves (hot paths) or call
    unconditionally (cold paths).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, List[float]] = {}
        # Lazily created on the first series_point so registries that
        # never record a series stay exactly as cheap (and snapshot to
        # exactly the same bytes) as before.
        self._series: Optional[TimeSeriesStore] = None

    def counter(self, name: str, value: float = 1) -> Optional[float]:
        """Add ``value`` (default 1) to the monotonic counter ``name``.

        Returns the new total (None when disabled) so tick loops can
        mirror counters into per-tick time series without re-reading.
        """
        if not self.enabled:
            return None
        with self._lock:
            total = self._counters.get(name, 0) + value
            self._counters[name] = total
            return total

    def gauge(self, name: str, value: float) -> None:
        """Set the last-write-wins gauge ``name`` to ``value``."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._histograms.setdefault(name, []).append(value)

    def series_point(self, name: str, tick: int, value: float) -> None:
        """Append one ``(tick, value)`` point to the time series
        ``name`` (bounded per series; see :mod:`repro.obs.timeseries`)."""
        if not self.enabled:
            return
        with self._lock:
            if self._series is None:
                self._series = TimeSeriesStore()
            store = self._series
        store.point(name, tick, value)

    @property
    def series(self) -> Optional[TimeSeriesStore]:
        """The time-series store, if any points were recorded."""
        return self._series

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic summary of everything recorded so far."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {k: list(v) for k, v in self._histograms.items()}
        summary: Dict[str, Any] = {
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "histograms": {},
        }
        for name in sorted(histograms):
            values = histograms[name]
            summary["histograms"][name] = {
                "count": len(values),
                "min": min(values),
                "max": max(values),
                "mean": sum(values) / len(values),
                "p50": percentile(values, 50.0),
                "p95": percentile(values, 95.0),
            }
        # Conditional so registries without series snapshot to the same
        # bytes as before the store existed.
        store = self._series
        if store is not None and len(store) > 0:
            summary["series"] = store.snapshot()
        return summary


_GLOBAL = MetricsRegistry(enabled=False)


def metrics() -> MetricsRegistry:
    """The process-global registry; disabled unless inside a capture."""
    return _GLOBAL


def set_metrics(instance: MetricsRegistry) -> MetricsRegistry:
    """Install ``instance`` as the global registry; returns the old one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = instance
    return previous

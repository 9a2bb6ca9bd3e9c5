"""Hierarchical, deterministic tracer for every layer of the stack.

The paper frames BT-Implementer as "a rigorous empirical tool for
exploring and evaluating pipeline schedules"; diagnosing *why* a window
was slow or a candidate was evicted needs one correlated timeline across
the profiler, solver, autotuner, DES runtime and serving layers - not
four disjoint reports.  This module provides that spine: a tracer that
records spans (with parent/child links) and instant events into a single
in-memory list, ready for the exporters in :mod:`repro.obs.export`.

Two clock domains keep traces byte-deterministic without wall time:

``control``
    A logical event counter.  Every span open/close and every instant
    advances it by one tick, so control-plane work (profiling cells,
    solver rounds, admission decisions) nests correctly and totally
    orders identically on every seeded run.

``virtual``
    DES virtual time.  The simulator retro-emits its recorded spans at
    the end of a run; a per-tracer *virtual cursor* lays successive runs
    out back-to-back so two serve windows never overlap on the exported
    timeline.

The global tracer is **disabled by default** and every instrumentation
site is guarded by ``tracer().enabled``, so uninstrumented runs pay one
attribute read per *run* (not per event) and allocate nothing - the
benchmark in ``benchmarks/test_observability_overhead.py`` holds the
line at <2% DES overhead.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, set_metrics

#: Control-plane clock domain (logical event counter).
CONTROL = "control"
#: DES virtual-time clock domain (seconds, laid out by the cursor).
VIRTUAL = "virtual"

#: Parent id used for root events (no enclosing span).
ROOT = 0
_NO_SPAN = nullcontext(ROOT)


@dataclass(frozen=True)
class TraceEvent:
    """One node of the span tree (or an instant leaf).

    ``ts``/``dur`` are logical ticks in the ``control`` domain and
    seconds in the ``virtual`` domain; exporters scale per domain.
    ``attrs`` is a sorted tuple of (key, value) pairs so events stay
    hashable and serialize identically on every run.
    """

    event_id: int
    parent_id: int
    name: str
    category: str
    kind: str  # "span" | "instant"
    domain: str  # CONTROL | VIRTUAL
    ts: float
    dur: float
    track: str
    attrs: Tuple[Tuple[str, Any], ...] = ()

    def attr(self, key: str, default: Any = None) -> Any:
        """The value of attribute ``key``, or ``default`` without one."""
        for k, v in self.attrs:
            if k == key:
                return v
        return default


def _freeze_attrs(attrs: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    return tuple(sorted(attrs.items()))


class Tracer:
    """Collects :class:`TraceEvent` s; disabled instances do nothing.

    All mutation happens under one lock so the threaded back-end's
    dispatchers can emit concurrently; on the deterministic paths
    (DES, a stepped server or fleet) a single thread emits, so event
    order - and therefore the exported bytes - is a pure function of the
    seed.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._events: List[TraceEvent] = []
        self._tick = 0
        self._next_id = 1
        self._virtual_cursor = 0.0
        self._tls = threading.local()

    # -- clock / id plumbing ------------------------------------------
    def _stack(self) -> List[Tuple[int, Dict[str, Any]]]:
        """This thread's open spans, innermost last: (id, attributes)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current_span_id(self) -> int:
        """Id of the innermost open span on this thread (ROOT if none)."""
        stack = self._stack()
        return stack[-1][0] if stack else ROOT

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the innermost open span on this thread -
        what a span only learns while it runs (a result count, say).
        Does nothing outside a span or on a disabled tracer."""
        stack = self._stack()
        if stack:
            stack[-1][1].update(attrs)

    @property
    def events(self) -> List[TraceEvent]:
        with self._lock:
            return list(self._events)

    # -- control-domain emission --------------------------------------
    def span(self, name: str, category: str, **attrs: Any):
        """Open a control-domain span; yields its event id.

        Nested ``span()`` calls on the same thread become children.
        The span is appended on close (Chrome's format does not require
        open-order), with ``dur`` equal to the number of logical ticks
        that elapsed inside it - children therefore nest strictly.
        A disabled tracer hands every caller the same do-nothing span.
        """
        if not self.enabled:
            return _NO_SPAN
        return self._span(name, category, attrs)

    @contextmanager
    def _span(self, name: str, category: str,
              attrs: Dict[str, Any]) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1][0] if stack else ROOT
        with self._lock:
            event_id = self._next_id
            self._next_id += 1
            start = self._tick
            self._tick += 1
        stack.append((event_id, attrs))
        try:
            yield event_id
        finally:
            stack.pop()
            with self._lock:
                end = self._tick
                self._tick += 1
                self._events.append(TraceEvent(
                    event_id=event_id, parent_id=parent, name=name,
                    category=category, kind="span", domain=CONTROL,
                    ts=float(start), dur=float(end - start),
                    track=category, attrs=_freeze_attrs(attrs),
                ))

    def instant(self, name: str, category: str,
                track: Optional[str] = None, **attrs: Any) -> int:
        """Record a zero-duration control-domain event; returns its id."""
        if not self.enabled:
            return ROOT
        parent = self.current_span_id()
        with self._lock:
            event_id = self._next_id
            self._next_id += 1
            ts = self._tick
            self._tick += 1
            self._events.append(TraceEvent(
                event_id=event_id, parent_id=parent, name=name,
                category=category, kind="instant", domain=CONTROL,
                ts=float(ts), dur=0.0,
                track=track if track is not None else category,
                attrs=_freeze_attrs(attrs),
            ))
        return event_id

    # -- virtual-domain emission --------------------------------------
    def emit_virtual_spans(self, spans: Sequence[Any], total_s: float,
                           parent_id: int = ROOT,
                           tenant: Optional[str] = None) -> None:
        """Retro-emit recorded DES spans at the current virtual cursor.

        ``spans`` are :class:`repro.obs.spans.Span`-shaped objects.
        The cursor advances by ``total_s`` afterwards, so successive
        runs (e.g. serve windows) occupy disjoint timeline intervals.
        One track per (tenant, PU class) keeps interleaved tenants
        separable, matching the Gantt sections; ``tenant`` names who
        this emission is for (one recorded window may be served to
        many), a span's own tag is the fallback.
        """
        if not self.enabled:
            return
        with self._lock:
            base = self._virtual_cursor
            self._virtual_cursor = base + max(total_s, 0.0)
            for span in spans:
                event_id = self._next_id
                self._next_id += 1
                owner = tenant if tenant is not None else span.tenant
                track = owner if owner is not None else "run"
                self._events.append(TraceEvent(
                    event_id=event_id, parent_id=parent_id,
                    name=f"chunk{span.chunk_index}/task{span.task_id}",
                    category="runtime", kind="span", domain=VIRTUAL,
                    ts=base + span.start_s, dur=span.duration_s,
                    track=f"{track}/{span.pu_class}",
                    attrs=_freeze_attrs({
                        "chunk": span.chunk_index,
                        "task": span.task_id,
                        "pu": span.pu_class,
                        "tenant": owner,
                    }),
                ))


# ----------------------------------------------------------------------
# Global tracer (off by default) and capture scope
# ----------------------------------------------------------------------
_GLOBAL = Tracer(enabled=False)


def tracer() -> Tracer:
    """The process-global tracer; disabled unless inside a capture."""
    return _GLOBAL


def set_tracer(instance: Tracer) -> Tracer:
    """Install ``instance`` as the global tracer; returns the old one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = instance
    return previous


@dataclass
class Capture:
    """Handle yielded by :func:`capture` - the live obs instruments."""

    tracer: Tracer
    metrics: MetricsRegistry

    @property
    def events(self) -> List[TraceEvent]:
        return self.tracer.events


@contextmanager
def capture() -> Iterator[Capture]:
    """Enable observability for a scope with fresh instruments.

    Installs a fresh enabled tracer and metrics registry, and restores
    the previous (normally disabled) instruments on exit - so tests and
    CLI commands opt in without perturbing the byte-identity of
    uninstrumented runs.
    """
    trc = Tracer(enabled=True)
    reg = MetricsRegistry(enabled=True)
    prev_tracer = set_tracer(trc)
    prev_metrics = set_metrics(reg)
    try:
        yield Capture(tracer=trc, metrics=reg)
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)

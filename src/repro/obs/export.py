"""Exporters over the unified span tree.

One event model, two renderings:

* :func:`chrome_trace` - Chrome trace-event JSON (the format Perfetto
  loads natively): the ``control`` and ``virtual`` clock domains become
  two processes, and every track (one per PU class and per tenant, plus
  one per control-plane category) becomes a named thread.  Span
  parent/child ids ride along in ``args`` so correlation survives the
  export.
* :func:`export_gantt` - the existing ASCII Gantt refitted as an
  exporter: virtual-domain span events are folded back into
  :class:`repro.obs.spans.Span` rows and rendered by
  :func:`~repro.obs.spans.format_gantt`.

Exports are pure functions of the event list (plus an optional metrics
snapshot), so a seeded run exports byte-identical traces every time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.spans import format_gantt, record_span
from repro.obs.tracer import CONTROL, VIRTUAL, TraceEvent

#: Chrome pid per clock domain (Perfetto shows each as a process group).
DOMAIN_PIDS = {CONTROL: 1, VIRTUAL: 2}
DOMAIN_LABELS = {
    CONTROL: "control plane (logical ticks)",
    VIRTUAL: "virtual time (DES)",
}


def _microseconds(event: TraceEvent) -> float:
    # Control ticks map 1 tick -> 1 us; virtual seconds scale to us.
    if event.domain == VIRTUAL:
        return event.ts * 1e6
    return event.ts


def _duration_us(event: TraceEvent) -> float:
    if event.domain == VIRTUAL:
        return event.dur * 1e6
    return event.dur


def _track_ids(events: Sequence[TraceEvent]) -> Dict[Any, int]:
    """Deterministic tid per (domain, track): sorted, starting at 1."""
    keys = sorted({(e.domain, e.track) for e in events})
    return {key: tid for tid, key in enumerate(keys, start=1)}


def chrome_trace(events: Sequence[TraceEvent],
                 metrics_snapshot: Optional[Dict[str, Any]] = None,
                 ) -> Dict[str, Any]:
    """Build a Chrome trace-event JSON payload (Perfetto-loadable)."""
    tids = _track_ids(events)
    trace_events: List[Dict[str, Any]] = []
    for domain in (CONTROL, VIRTUAL):
        pid = DOMAIN_PIDS[domain]
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": DOMAIN_LABELS[domain]},
        })
    for (domain, track), tid in sorted(tids.items()):
        trace_events.append({
            "ph": "M", "name": "thread_name",
            "pid": DOMAIN_PIDS[domain], "tid": tid,
            "args": {"name": track},
        })
    for event in events:
        args: Dict[str, Any] = {
            "id": event.event_id,
            "parent": event.parent_id,
        }
        for key, value in event.attrs:
            args[key] = value
        record: Dict[str, Any] = {
            "ph": "X" if event.kind == "span" else "i",
            "name": event.name,
            "cat": event.category,
            "ts": _microseconds(event),
            "pid": DOMAIN_PIDS[event.domain],
            "tid": tids[(event.domain, event.track)],
            "args": args,
        }
        if event.kind == "span":
            record["dur"] = _duration_us(event)
        else:
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    payload: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events,
        "otherData": {
            "generator": "repro.obs",
            "metrics": metrics_snapshot if metrics_snapshot else {},
        },
    }
    return payload


def export_gantt(events: Sequence[TraceEvent], width: int = 72) -> str:
    """Render the virtual-domain span events as an ASCII Gantt chart."""
    spans = [
        record_span(
            chunk_index=int(e.attr("chunk", 0)),
            pu_class=str(e.attr("pu", e.track)),
            task_id=int(e.attr("task", 0)),
            start_s=e.ts,
            end_s=e.ts + e.dur,
            tenant=e.attr("tenant"),
        )
        for e in events
        if e.domain == VIRTUAL and e.kind == "span"
    ]
    return format_gantt(spans, width=width)


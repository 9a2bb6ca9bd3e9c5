"""Execution traces and ASCII Gantt rendering for simulated runs.

The BT-Implementer is "a rigorous empirical tool for exploring and
evaluating pipeline schedules" (paper section 1.1); being able to *see*
a pipeline's overlap - which chunk stalls, where the bubble is - is half
of that.  The simulator optionally records one :class:`Span` per
(chunk, task) execution; :func:`format_gantt` renders the spans as a
terminal Gantt chart, one row per chunk.

Spans optionally carry a tenant/job id (multi-tenant serving,
:mod:`repro.serve`); tagged traces render as one Gantt section per
tenant on a shared time axis, so cross-tenant interference windows
line up visually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Span:
    """One chunk's processing of one task, in virtual time.

    ``tenant`` is ``None`` for single-workload runs; the serving layer
    stamps each tenant's spans with its job id so interleaved traces
    remain separable.
    """

    chunk_index: int
    pu_class: str
    task_id: int
    start_s: float
    end_s: float
    tenant: Optional[str] = None

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


def record_span(chunk_index: int, pu_class: str, task_id: int,
                start_s: float, end_s: float,
                tenant: Optional[str] = None) -> Span:
    """The sanctioned :class:`Span` constructor.

    All span emission goes through here (or the tracer API in
    :mod:`repro.obs`); the ``UNTAGGED-SPAN`` lint rule flags direct
    ``Span(...)`` construction elsewhere, so spans cannot bypass the
    unified observability layer.
    """
    return Span(chunk_index=chunk_index, pu_class=pu_class,
                task_id=task_id, start_s=start_s, end_s=end_s,
                tenant=tenant)


def _chunk_rows(spans: Sequence[Span], t_end: float,
                width: int) -> List[str]:
    """One Gantt row per (chunk, PU) present in ``spans``."""
    chunks = sorted({(s.chunk_index, s.pu_class) for s in spans})
    lines: List[str] = []
    for chunk_index, pu_class in chunks:
        row = [" "] * width
        for span in spans:
            if span.chunk_index != chunk_index:
                continue
            # Half-open column interval.  Dividing by t_end *before*
            # scaling keeps the right edge exact (x/x*w == w in IEEE,
            # whereas x*(w/x) can land at w-ulp), so a sub-column span
            # widened to one cell before clamping maps to the empty
            # interval [width, width) at the right edge and draws
            # nothing instead of overwriting the last cell; clamping
            # afterwards means pathological coordinates never wrap the
            # row.
            lo = int(span.start_s / t_end * width)
            hi = int(span.end_s / t_end * width)
            if hi <= lo:
                hi = lo + 1
            lo = max(lo, 0)
            hi = min(hi, width)
            glyph = format(span.task_id % 16, "x")
            for col in range(lo, hi):
                row[col] = glyph
        label = f"chunk {chunk_index} {pu_class:7s}"
        lines.append(f"{label} |{''.join(row)}|")
    return lines


def format_gantt(spans: Sequence[Span], width: int = 72) -> str:
    """Render spans as an ASCII Gantt chart.

    One row per chunk; each task's span is drawn with the last hex digit
    of its task id, so the pipeline diagonal is visible:

        chunk 0 big    00111222333...
        chunk 1 gpu    ..0011122233...

    When the spans carry tenant ids (multi-tenant traces), each tenant
    gets its own titled section; every section shares one time axis so
    co-run intervals align across tenants.
    """
    if not spans:
        return "(empty trace)"
    t_end = max(span.end_s for span in spans)
    if t_end <= 0:
        return "(zero-length trace)"
    tenants = {span.tenant for span in spans}
    lines: List[str] = []
    if tenants == {None}:
        lines.extend(_chunk_rows(spans, t_end, width))
    else:
        # Named tenants in sorted order; untagged spans last.
        ordered = sorted(t for t in tenants if t is not None)
        if None in tenants:
            ordered.append(None)
        for tenant in ordered:
            label = tenant if tenant is not None else "(untagged)"
            lines.append(f"tenant {label}:")
            lines.extend(_chunk_rows(
                [s for s in spans if s.tenant == tenant], t_end, width
            ))
    # Right-align the end-time label with the closing "|"; the pad
    # clamps at zero so narrow charts degrade instead of crashing on a
    # negative field width.
    end_label = f"{t_end * 1e3:.2f} ms"
    pad = max(width - len(end_label), 0)
    lines.append(f"{'':16s} 0{'':{pad}s}{end_label}")
    return "\n".join(lines)

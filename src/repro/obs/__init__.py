"""repro.obs - unified observability: tracer and metrics.

One deterministic event spine across every layer (profiler, solver,
autotuner, DES runtime, threaded back-end, serving), with exporters to
Chrome/Perfetto trace JSON and the ASCII Gantt of
:mod:`~repro.obs.spans`.  On top of the spine: per-window interference blame
decomposition (:mod:`~repro.obs.attribution`), bounded per-tick time
series (:mod:`~repro.obs.timeseries`) and multi-window SLO burn-rate
alerts (:mod:`~repro.obs.alerts`).  All instruments are disabled by
default; wrap a scope in :func:`capture` to record.
"""

from repro.obs.alerts import BurnAlert, BurnRateEvaluator, BurnRateRule
from repro.obs.attribution import (
    BlameMatrix,
    BlameShare,
    ChunkLoad,
    decompose,
    steady_interval,
    top_offenders,
)
from repro.obs.export import chrome_trace, export_gantt
from repro.obs.metrics import (
    MetricsRegistry,
    metrics,
    percentile,
    set_metrics,
)
from repro.obs.spans import Span, format_gantt, record_span
from repro.obs.timeseries import TimeSeriesStore
from repro.obs.tracer import (
    CONTROL,
    ROOT,
    VIRTUAL,
    Capture,
    TraceEvent,
    Tracer,
    capture,
    set_tracer,
    tracer,
)

__all__ = [
    "CONTROL",
    "ROOT",
    "VIRTUAL",
    "BlameMatrix",
    "BlameShare",
    "BurnAlert",
    "BurnRateEvaluator",
    "BurnRateRule",
    "Capture",
    "ChunkLoad",
    "MetricsRegistry",
    "Span",
    "TimeSeriesStore",
    "TraceEvent",
    "Tracer",
    "capture",
    "chrome_trace",
    "decompose",
    "export_gantt",
    "format_gantt",
    "metrics",
    "percentile",
    "record_span",
    "set_metrics",
    "set_tracer",
    "steady_interval",
    "top_offenders",
    "tracer",
]

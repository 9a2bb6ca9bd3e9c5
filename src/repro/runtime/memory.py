"""Pipeline memory accounting.

Multi-buffering (paper section 3.4) trades DRAM for overlap: ``depth``
TaskObjects circulate, each carrying every buffer the application needs
end-to-end, all pre-allocated.  On memory-constrained edge devices the
deployment question "how many TaskObjects can I afford?" is as real as
the latency question; this module answers it from an application's task
factory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.errors import PipelineError
from repro.stage import Application


@dataclass(frozen=True)
class MemoryReport:
    """DRAM footprint of a pipeline deployment.

    Attributes:
        per_task_bytes: One TaskObject's buffers.
        depth: TaskObjects in flight.
        total_bytes: ``per_task_bytes * depth``.
        buffer_bytes: Per-buffer breakdown.
    """

    per_task_bytes: int
    depth: int
    buffer_bytes: Dict[str, int]

    @property
    def total_bytes(self) -> int:
        return self.per_task_bytes * self.depth

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1024.0 * 1024.0)


def estimate_pipeline_memory(application: Application,
                             depth: int) -> MemoryReport:
    """Footprint of running ``application`` with ``depth`` TaskObjects.

    Requires the application to provide a task factory; buffer sizes are
    taken from a representative task (they are pre-allocated at maximum
    size by construction, so one sample is exact).
    """
    if depth < 1:
        raise PipelineError("depth must be >= 1")
    if application.make_task is None:
        raise PipelineError(
            f"{application.name!r} has no task factory to size buffers from"
        )
    sample = application.make_task(0)
    buffer_bytes = {
        name: int(np.asarray(array).nbytes)
        for name, array in sample.items()
    }
    return MemoryReport(
        per_task_bytes=sum(buffer_bytes.values()),
        depth=depth,
        buffer_bytes=buffer_bytes,
    )

"""TaskObject: everything one streaming input needs, pre-allocated.

Paper section 3.4: a TaskObject holds all memory buffers and metadata
required to run an application end-to-end - unified buffers, host/device
scratch, and scalar constants - allocated once and recycled between tasks
so the steady-state pipeline never allocates.

The object behaves like a mutable mapping from buffer name to the numpy
array (the *unified* view), which is the interface the compute kernels
consume; richer access (device views, attach hints) goes through
:meth:`buffer`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, MutableMapping

import numpy as np

from repro.errors import PipelineError
from repro.runtime import checks as _checks
from repro.runtime.usm import UsmBuffer


class TaskObject(MutableMapping):
    """A recyclable container of buffers and constants for one task."""

    def __init__(self, task_id: int = 0):
        self.task_id = task_id
        self.sequence = task_id  # updated on every recycle
        self._buffers: Dict[str, UsmBuffer] = {}
        self._constants: Dict[str, object] = {}
        self._generation = 0
        self._released = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _insert(self, buffer: UsmBuffer) -> UsmBuffer:
        """Register a buffer, checking aliasing under ``REPRO_CHECK``.

        Two buffers of one TaskObject sharing storage breaks the
        multi-buffer lifetime model: a chunk writing one silently
        clobbers the other mid-pipeline.
        """
        if _checks.ENABLED:
            for other in self._buffers.values():
                if buffer.shares_storage(other):
                    _checks.record_violation(
                        _checks.BUFFER_ALIAS,
                        where=f"TaskObject {self.task_id}",
                        detail=(f"buffers {buffer.name!r} and "
                                f"{other.name!r} alias the same "
                                "storage"),
                    )
        self._buffers[buffer.name] = buffer
        return buffer

    def allocate(self, name: str, shape, dtype) -> UsmBuffer:
        """Pre-allocate a named buffer (refuses duplicates)."""
        if name in self._buffers:
            raise PipelineError(f"buffer {name!r} already allocated")
        return self._insert(
            UsmBuffer(name, tuple(np.atleast_1d(shape).tolist())
                      if not isinstance(shape, tuple) else shape, dtype)
        )

    def adopt(self, name: str, array: np.ndarray) -> UsmBuffer:
        """Wrap an existing array's shape/dtype as a unified buffer and
        copy its contents in (used when loading inputs)."""
        buffer = self.allocate(name, array.shape, array.dtype)
        np.copyto(buffer.host_view(), array)
        return buffer

    def wrap(self, name: str, array: np.ndarray) -> UsmBuffer:
        """Adopt an existing array *zero-copy* as a named buffer (the
        UMA adoption path; the checker flags aliasing against the
        task's other buffers)."""
        if name in self._buffers:
            raise PipelineError(f"buffer {name!r} already allocated")
        return self._insert(UsmBuffer.wrap(name, array))

    def set_constant(self, name: str, value) -> None:
        """Attach a scalar parameter (e.g. input dimensions)."""
        self._check_live(f"set_constant({name!r})")
        self._constants[name] = value

    def constant(self, name: str):
        """Read a scalar parameter."""
        try:
            return self._constants[name]
        except KeyError:
            raise PipelineError(f"no constant {name!r}") from None

    @property
    def constants(self) -> Mapping[str, object]:
        return dict(self._constants)

    # ------------------------------------------------------------------
    # Mapping interface: kernels index buffers by name.
    # ------------------------------------------------------------------
    def buffer(self, name: str) -> UsmBuffer:
        """The named UsmBuffer object (for device views/hints)."""
        self._check_live(f"buffer({name!r})")
        try:
            return self._buffers[name]
        except KeyError:
            raise PipelineError(f"no buffer {name!r}") from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.buffer(name).host_view()

    def __setitem__(self, name: str, array: np.ndarray) -> None:
        if name in self._buffers:
            target = self.buffer(name).host_view()
            np.copyto(target, array)
        else:
            self.adopt(name, np.asarray(array))

    def __delitem__(self, name: str) -> None:
        del self._buffers[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._buffers)

    def __len__(self) -> int:
        return len(self._buffers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def synchronize_for(self, pu_class: str) -> None:
        """Issue coherence hints for every buffer before a chunk runs
        (dispatcher step 2 in paper section 3.4)."""
        for name in list(self._buffers):
            self.buffer(name).attach_async(pu_class)

    def recycle(self, new_sequence: int) -> None:
        """Reset for reuse by a subsequent task (dispatcher recycling).

        Recycling a *released* TaskObject is a lifetime bug - the
        executor only recycles live objects still circulating through
        the queues - so the checker reports it before reviving.
        """
        self._check_live(f"recycle({new_sequence})")
        self.sequence = new_sequence
        self._generation += 1

    @property
    def generation(self) -> int:
        return self._generation

    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Retire the task and all its buffers (end of its last use).

        Under ``REPRO_CHECK=1`` any later buffer or constant access is
        recorded as a ``use-after-release`` violation - the Python
        stand-in for the C++ runtime freeing the TaskObject's memory.
        Idempotent.
        """
        self._released = True
        for buffer in self._buffers.values():
            buffer.release()

    def _check_live(self, operation: str) -> None:
        if self._released and _checks.ENABLED:
            _checks.record_violation(
                _checks.USE_AFTER_RELEASE,
                where=f"TaskObject {self.task_id}",
                detail=f"{operation} on a released task object",
            )

    def total_bytes(self) -> int:
        """Total bytes across all buffers."""
        return sum(buffer.nbytes for buffer in self._buffers.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TaskObject(id={self.task_id}, seq={self.sequence}, "
            f"{len(self._buffers)} buffers, {self.total_bytes()} bytes)"
        )

"""Unified shared memory buffers (paper section 3.1, ``UsmBuffer``).

The paper targets UMA SoCs: one DRAM pool, one physical address space, so
a buffer allocated once is visible to host and device with zero copies
(``std::pmr::vector`` fronted by ``cudaMallocManaged`` / ``VkBuffer``
allocators in the C++ implementation).  In Python the single numpy array
*is* the unified allocation; ``host_view``/``device_view`` return the same
storage, and ``attach_async`` stands where the real runtime issues its
coherence hints (``cudaStreamAttachMemAsync`` prefetches, Vulkan pipeline
barriers): with unified storage there is nothing to flush, so it only
checks the buffer is still live.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.runtime import checks as _checks


class UsmBuffer:
    """A named, pre-allocated unified-memory buffer.

    Args:
        name: Buffer identifier within its TaskObject.
        shape: Numpy shape.
        dtype: Numpy dtype.
        data: Optional existing array to adopt *zero-copy* as the
            unified allocation (the UMA adoption path); must match
            ``shape`` and ``dtype``.  Without it a fresh zeroed
            allocation is made.
    """

    def __init__(self, name: str, shape: Tuple[int, ...], dtype,
                 data: Optional[np.ndarray] = None):
        self.name = name
        if data is not None:
            if tuple(data.shape) != tuple(shape) \
                    or data.dtype != np.dtype(dtype):
                raise PipelineError(
                    f"buffer {name!r}: adopted array is "
                    f"{data.shape}/{data.dtype}, declared "
                    f"{tuple(shape)}/{np.dtype(dtype)}"
                )
            self._data = data
        else:
            self._data = np.zeros(shape, dtype=dtype)
        self._released = False

    @classmethod
    def wrap(cls, name: str, array: np.ndarray) -> "UsmBuffer":
        """Adopt an existing array zero-copy (shares its storage)."""
        array = np.asarray(array)
        return cls(name, tuple(array.shape), array.dtype, data=array)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    def host_view(self) -> np.ndarray:
        """The host-side pointer (zero-copy: same storage as the device)."""
        self._check_live("host_view")
        return self._data

    def device_view(self) -> np.ndarray:
        """The device-side pointer (same storage - UMA)."""
        self._check_live("device_view")
        return self._data

    # ------------------------------------------------------------------
    def attach_async(self, pu_class: str) -> None:
        """Issue a coherence/prefetch hint for the given PU.

        Mirrors ``cudaStreamAttachMemAsync`` (CUDA) / the memory-barrier
        recording into a ``VkCommandBuffer`` (Vulkan) issued by the
        dispatcher before launching a chunk (paper section 3.4).
        """
        self._check_live("attach_async")

    def fill(self, value) -> None:
        """Fill the buffer with a constant."""
        self._check_live("fill")
        self._data.fill(value)

    def zero(self) -> None:
        """Zero the buffer."""
        self._check_live("zero")
        self._data.fill(0)

    # ------------------------------------------------------------------
    # Lifetime (checked by the dynamic concurrency checker)
    # ------------------------------------------------------------------
    @property
    def released(self) -> bool:
        return self._released

    def release(self) -> None:
        """Retire the buffer: any later view/write is a lifetime bug.

        The pipeline executor releases a TaskObject's buffers when the
        task retires; under ``REPRO_CHECK=1`` any subsequent access is
        recorded as a ``use-after-release`` violation.  Idempotent.
        """
        self._released = True

    def _check_live(self, operation: str) -> None:
        if self._released and _checks.ENABLED:
            _checks.record_violation(
                _checks.USE_AFTER_RELEASE,
                where=f"UsmBuffer {self.name!r}",
                detail=f"{operation}() on a released buffer",
            )

    def shares_storage(self, other: "UsmBuffer") -> bool:
        """Whether two buffers alias the same underlying memory."""
        return bool(np.shares_memory(self._data, other._data))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"UsmBuffer({self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )

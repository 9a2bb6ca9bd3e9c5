"""Single-producer single-consumer queue (paper section 3.4).

Dispatcher threads communicate through lightweight SPSC queues passing
TaskObject *pointers* between pipeline chunks.  This implementation is a
fixed-capacity ring buffer: the produce/consume fast paths only touch the
head/tail counters (the lock protects Python-level visibility, standing in
for the C++ version's acquire/release atomics), and both ends support
closing for clean pipeline shutdown.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, List, Optional, Tuple

from repro.errors import QueueClosedError
from repro.obs.metrics import metrics
from repro.runtime import checks as _checks
from repro.runtime.lock_order import checked_lock

#: Deterministic default names for anonymous queues ("spsc-0", ...).
_QUEUE_IDS = itertools.count()


class SpscQueue:
    """A bounded FIFO for exactly one producer and one consumer thread.

    The single-producer/single-consumer discipline is an *ownership*
    contract, not something the lock enforces: under ``REPRO_CHECK=1``
    the first push binds the producer thread and the first pop binds
    the consumer thread, and any operation from a second thread is
    recorded as a concurrency violation (``close`` is exempt - any
    thread may unwind the pipeline).
    """

    def __init__(self, capacity: int, name: Optional[str] = None):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self.name = name if name is not None else f"spsc-{next(_QUEUE_IDS)}"
        self._ring: List[Any] = [None] * (capacity + 1)  # one slot spare
        self._head = 0  # consumer position
        self._tail = 0  # producer position
        self._closed = False
        self._lock = checked_lock(f"{self.name}.lock")
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        # (ident, thread name) bound by the first push / first pop.
        self._producer: Optional[Tuple[int, str]] = None
        self._consumer: Optional[Tuple[int, str]] = None

    # ------------------------------------------------------------------
    def _bind(self, end: str) -> None:
        """Bind/verify the calling thread's ownership of one queue end.

        Called with the queue lock held, so binding is race-free even
        when the violating threads race each other.
        """
        me = (threading.get_ident(), threading.current_thread().name)
        bound = self._producer if end == "producer" else self._consumer
        if bound is None:
            if end == "producer":
                self._producer = me
            else:
                self._consumer = me
            return
        if bound[0] != me[0]:
            kind = (_checks.SPSC_PRODUCER if end == "producer"
                    else _checks.SPSC_CONSUMER)
            _checks.record_violation(
                kind, where=self.name,
                detail=(f"{end} end bound to thread {bound[1]!r} but "
                        f"used from {me[1]!r}"),
            )

    # ------------------------------------------------------------------
    def _size_locked(self) -> int:
        return (self._tail - self._head) % len(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return self._size_locked()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # ------------------------------------------------------------------
    def push(self, item: Any, timeout: Optional[float] = None) -> None:
        """Enqueue, blocking while full.

        ``timeout`` bounds the *total* wait: the deadline is fixed up
        front, so wakeups that find the queue still full wait only for
        the remainder (a slow-but-live consumer cannot extend it).

        Raises:
            QueueClosedError: The queue was closed.
            TimeoutError: ``timeout`` elapsed while full.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_full:
            if _checks.ENABLED:
                self._bind("producer")
            while self._size_locked() >= self.capacity:
                if self._closed:
                    raise QueueClosedError("push to closed queue")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("SPSC push timed out")
                self._not_full.wait(remaining)
            if self._closed:
                raise QueueClosedError("push to closed queue")
            self._ring[self._tail] = item
            self._tail = (self._tail + 1) % len(self._ring)
            reg = metrics()
            if reg.enabled:
                reg.observe("spsc.queue_depth", self._size_locked())
            self._not_empty.notify()

    def pop(self, timeout: Optional[float] = None) -> Any:
        """Dequeue, blocking while empty.

        ``timeout`` bounds the *total* wait (monotonic deadline, as in
        :meth:`push`), not the gap between wakeups.

        Raises:
            QueueClosedError: Closed *and* drained.
            TimeoutError: ``timeout`` elapsed while empty.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._not_empty:
            if _checks.ENABLED:
                self._bind("consumer")
            while self._size_locked() == 0:
                if self._closed:
                    raise QueueClosedError("pop from closed, drained queue")
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("SPSC pop timed out")
                self._not_empty.wait(remaining)
            item = self._ring[self._head]
            self._ring[self._head] = None
            self._head = (self._head + 1) % len(self._ring)
            self._not_full.notify()
            return item

    def close(self) -> None:
        """Mark the stream ended; consumers drain then get
        :class:`QueueClosedError`, producers fail immediately."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()

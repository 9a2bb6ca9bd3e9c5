"""The DES's reference event loop: test equipment.

The original, readable scalar loop that the compiled kernel
(``repro.runtime.simulator._VectorEngine``) replaced, kept next to its
tests as the kernel's correctness oracle.  The engine-equivalence suites
hold the two byte-identical: completions, busy seconds, spans, event
counts, and the fault injector's dropout log in order.  Three ways in:

* :func:`build` - an executor on the loop a test names (``"vector"`` or
  ``"reference"``); ``engine=None`` is the session's loop, and a named
  one overrides it.  :func:`using` names one for the executors a block
  builds elsewhere (a serve soak's).
* the root conftest's ``--sim-engine={vector,reference}`` option - the
  loop of every executor built in a pytest session, also those built
  deep inside the serving layer.  :func:`use` wraps
  ``SimulatedPipelineExecutor.__init__``, not the kernel, so a test that
  swaps in a mutated ``_VectorEngine`` still reaches it.
* ``python -m tests.runtime.reference_engine <repro args>`` - one
  ``repro`` command with every executor on the reference loop (run from
  the repository root with ``PYTHONPATH=src``).
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import deque
from typing import Callable, Deque, Dict, Iterator, List, Optional

from repro.stage import Chunk
from repro.errors import PipelineError
from repro.runtime import simulator as sim
from repro.runtime.simulator import (
    _IDLE,
    _REL_EPS,
    SimulatedPipelineExecutor,
    _jitter_column,
)
from repro.obs.spans import Span, record_span
from repro.soc.cost_model import StageCost
from repro.soc.interference import ExternalLoad, external_co_load

VECTOR = "vector"
REFERENCE = "reference"
ENGINES = (VECTOR, REFERENCE)

#: The loop an executor built without naming one runs (``--sim-engine``).
_session = VECTOR
#: The executor's own constructor, whatever :func:`use` installs.
_INIT = SimulatedPipelineExecutor.__init__


def install(executor: SimulatedPipelineExecutor, engine: str) -> None:
    """Put ``executor`` on the loop ``engine`` names, replacing the one
    it was built with.  The kernel is looked up at call time, so a
    planted ``_VectorEngine`` mutant is what ``"vector"`` installs."""
    loop = {VECTOR: sim._VectorEngine, REFERENCE: ReferenceEngine}[engine]
    executor._run_window = loop(executor).run_window


def build(application, chunks, platform, engine: Optional[str] = None,
          **kwargs) -> SimulatedPipelineExecutor:
    """A :class:`SimulatedPipelineExecutor` on the loop ``engine``
    names; ``None`` keeps the session's."""
    executor = SimulatedPipelineExecutor(application, chunks, platform,
                                         **kwargs)
    if engine is not None and engine != _session:
        install(executor, engine)
    return executor


def use(engine: str) -> None:
    """Make ``engine`` the loop of every executor built from now on."""
    global _session
    if engine not in ENGINES:
        raise ValueError(f"unknown simulator engine {engine!r}; "
                         f"expected one of {list(ENGINES)}")
    _session = engine
    if engine == VECTOR:
        SimulatedPipelineExecutor.__init__ = _INIT
        return

    @functools.wraps(_INIT)
    def __init__(self, *args, **kwargs):
        _INIT(self, *args, **kwargs)
        install(self, REFERENCE)

    SimulatedPipelineExecutor.__init__ = __init__


@contextlib.contextmanager
def using(engine: str) -> Iterator[None]:
    """:func:`use` for the span of a ``with`` block, for a test that
    names a loop for executors it does not build itself."""
    previous = _session
    use(engine)
    try:
        yield
    finally:
        use(previous)


class _ChunkServer:
    """Execution state of one chunk's dispatcher (reference engine)."""

    def __init__(self, index: int, chunk: Chunk,
                 stage_costs: List[StageCost]):
        self.index = index
        self.chunk = chunk
        self.stage_costs = stage_costs
        self.task = _IDLE
        self.stage = 0
        self.in_overhead = True
        self.remaining = 0.0
        self.phase_total = 0.0
        self.noise_scale = 1.0
        self.ready: Deque[int] = deque()  # upstream-completed ids, FIFO
        self.busy_s = 0.0

    @property
    def idle(self) -> bool:
        return self.task == _IDLE

    def begin_task(self, task_id: int, noise_scale_fn, injector) -> None:
        if injector is not None:
            injector.check_dropout(self.chunk.pu_class, self.chunk.start,
                                   task_id)
        self.task = task_id
        self.stage = 0
        self._enter_stage(noise_scale_fn)

    def _enter_stage(self, noise_scale_fn) -> None:
        cost = self.stage_costs[self.stage]
        self.in_overhead = cost.overhead_s > 0.0
        self.noise_scale = noise_scale_fn(self.task, self.stage)
        if self.in_overhead:
            self.remaining = cost.overhead_s
        else:
            self.remaining = cost.work_s * self.noise_scale
        self.phase_total = self.remaining

    def advance(self, dt: float, rate: float) -> None:
        self.remaining -= dt * rate
        self.busy_s += dt

    def finished_phase(self) -> bool:
        return self.remaining <= self.phase_total * _REL_EPS

    def next_phase(self, noise_scale_fn) -> Optional[int]:
        """Move to the next phase/stage.  Returns the completed task id
        when the whole chunk is done with it, else None."""
        if self.in_overhead:
            self.in_overhead = False
            cost = self.stage_costs[self.stage]
            self.remaining = cost.work_s * self.noise_scale
            self.phase_total = self.remaining
            if self.remaining > 0.0:
                return None
        self.stage += 1
        if self.stage < len(self.stage_costs):
            self._enter_stage(noise_scale_fn)
            return None
        done = self.task
        self.task = _IDLE
        return done


def _make_scale_fn(
    executor: SimulatedPipelineExecutor,
) -> Callable[[int, int, int], float]:
    """Phase-scale function of ``(n_tasks, task, local stage)``: the
    jitter column's entry."""
    name, key = executor.platform.name, executor._schedule_key

    def scale(n_tasks: int, task_id: int, local_stage: int) -> float:
        return _jitter_column(name, key, local_stage, n_tasks)[task_id]

    return scale


class ReferenceEngine:
    """The reference loop on one executor's pipeline.  Like the kernel
    it keeps no reference back to the executor that runs it."""

    def __init__(self, executor: SimulatedPipelineExecutor):
        self.depth = executor.depth
        self.platform = executor.platform
        self.injector = executor._injector
        self._servers = [
            _ChunkServer(i, chunk, costs)
            for i, (chunk, costs) in enumerate(
                zip(executor.chunks, executor._costs))
        ]
        self._scale_fn = _make_scale_fn(executor)

    def run_window(
        self,
        n_tasks: int,
        record_trace: bool,
        arrivals: List[float],
        external: Optional[ExternalLoad],
    ):
        scale_fn = functools.partial(self._scale_fn, n_tasks)
        for server in self._servers:
            server.task = _IDLE
            server.ready.clear()
            server.busy_s = 0.0

        now = 0.0
        issued = 0
        events = 0
        completed: List[float] = []
        spans: List[Span] = []
        span_starts: Dict[int, float] = {}

        while len(completed) < n_tasks:
            events += 1
            # Admit work.
            first = self._servers[0]
            if (
                first.idle
                and issued < n_tasks
                and issued - len(completed) < self.depth
                and arrivals[issued] <= now + 1e-15
            ):
                first.begin_task(issued, scale_fn, self.injector)
                if record_trace:
                    span_starts[first.index] = now
                issued += 1
            for server in self._servers[1:]:
                if server.idle and server.ready:
                    server.begin_task(server.ready.popleft(), scale_fn,
                                      self.injector)
                    if record_trace:
                        span_starts[server.index] = now

            active = [s for s in self._servers if not s.idle]
            if not active:
                if (
                    issued < n_tasks
                    and arrivals[issued] > now
                    and issued - len(completed) < self.depth
                ):
                    now = arrivals[issued]  # idle until the next arrival
                    continue
                raise PipelineError(
                    "pipeline deadlock: nothing active, tasks pending"
                )

            # Instantaneous rates under the current co-run condition,
            # internal (this pipeline's active chunks) plus external
            # (co-tenants / injected drift on the shared SoC).
            busy_classes = {s.chunk.pu_class for s in active}
            total_demand = sum(
                s.stage_costs[s.stage].demand_gbps
                for s in active
                if not s.in_overhead
            )
            if external is not None:
                total_demand += external.demand_gbps
            rates: Dict[int, float] = {}
            for server in active:
                if server.in_overhead:
                    rates[server.index] = 1.0
                    continue
                cost = server.stage_costs[server.stage]
                co_load = external_co_load(
                    busy_classes, server.chunk.pu_class, external,
                    max(len(self.platform.pu_classes()) - 1, 0),
                )
                rate = self.platform.instantaneous_rate(
                    memory_boundedness=cost.memory_boundedness,
                    pu_class=server.chunk.pu_class,
                    demand_gbps=cost.demand_gbps,
                    total_demand_gbps=total_demand,
                    co_load=co_load,
                )
                if external is not None:
                    # A foreign co-runner on the *same* class
                    # time-shares the cluster (fair-share split).
                    share = external.busy.get(
                        server.chunk.pu_class, 0.0
                    )
                    if share > 0.0:
                        rate /= 1.0 + share
                rates[server.index] = rate

            # Advance to the next phase completion (or next arrival,
            # whichever lets the first chunk admit sooner).  The server
            # defining dt drains exactly: its remaining snaps to 0.0
            # after the advance, leaving no float residue.
            dt = None
            snap: Optional[_ChunkServer] = None
            for server in active:
                candidate = server.remaining / rates[server.index]
                if dt is None or candidate < dt:
                    dt = candidate
                    snap = server
            dt = max(dt, 0.0)
            if (
                first.idle
                and issued < n_tasks
                and issued - len(completed) < self.depth
                and arrivals[issued] > now
            ):
                cap = arrivals[issued] - now
                if cap < dt:
                    dt = cap
                    snap = None
            now += dt
            for server in active:
                server.advance(dt, rates[server.index])
            if snap is not None:
                snap.remaining = 0.0

            # Process completions (any server whose phase drained).
            for position, server in enumerate(self._servers):
                if server.idle or not server.finished_phase():
                    continue
                previous_task = server.task
                done_task = server.next_phase(scale_fn)
                if done_task is None:
                    continue
                if record_trace:
                    spans.append(record_span(
                        chunk_index=server.index,
                        pu_class=server.chunk.pu_class,
                        task_id=previous_task,
                        start_s=span_starts.pop(server.index, now),
                        end_s=now,
                    ))
                if position + 1 < len(self._servers):
                    self._servers[position + 1].ready.append(done_task)
                else:
                    completed.append(now)

        busy_s = {s.index: s.busy_s for s in self._servers}
        return completed, spans, busy_s, now, events


if __name__ == "__main__":
    from repro.cli import main

    use(REFERENCE)
    raise SystemExit(main(sys.argv[1:]))

"""BT-Implementer, performance back-end: rate-based discrete-event sim.

Produces every "measured on the device" number in the experiments.  The
pipeline is simulated on the virtual SoC with interference as an
*emergent* quantity: each executing stage progresses at an instantaneous
rate that depends on which other PUs are busy at that moment and how much
DRAM bandwidth they are collectively drawing.  Because co-run conditions
during a real pipeline differ from both profiling modes (isolated: nobody
else runs; interference-heavy: everybody runs flat out), predictions made
from either profiling table can deviate from these measurements - exactly
the gap the paper's Figs. 5-6 quantify and its autotuning level 3 mops up.

Mechanics: each chunk is a server processing tasks in order.  A stage
execution has a fixed overhead phase (dispatch/launch - unaffected by
interference) followed by a work phase whose remaining work drains at
``rate = interference.speed_multiplier(...)``.  Whenever any stage starts
or finishes, the active set changes and all rates are recomputed - a
standard piecewise-constant-rate DES.

Multi-buffering: ``depth`` TaskObjects circulate; the first chunk may only
admit task ``t`` once fewer than ``depth`` tasks are in flight, mirroring
the recycling queue of section 3.4.

One event loop, a compiled kernel (:class:`_VectorEngine`).  A
pipeline's phase order is static, so a window is *compiled* before it
is simulated: once per executor each chunk server's phase program, once
per window a flat, task-major table of every step's duration (built a
work step's jitter column at a time), and the loop itself only advances
clocks and bumps one slot index per server.  Instantaneous rates are
recomputed only when the discrete phase signature (who is active, in
which stage, which phase) actually changes - and then for all active
servers in one pass, memoized per signature.  A fault injector is
stateful and order-sensitive, so its PU-dropout check runs where a
server starts a task, in event order; the DES injects nothing else.
The loop handles any pipeline width; the paper's C2 gives each PU
class at most one chunk, so real pipelines have 1-4 servers.  Its
correctness oracle, the original readable scalar loop, is test
equipment (``tests/runtime/reference_engine.py``): the
engine-equivalence suites hold the two byte-identical (completions,
busy seconds, spans, event counts, the dropout log) across seeds,
schedules, depths, arrivals, PU dropouts and external load.

Rate determinism makes the memoization exact rather than approximate:
between events rates are a pure function of the phase signature and the
window's :class:`~repro.soc.interference.ExternalLoad`, so a cached rate
list is bit-equal to a recomputed one.  The external load is a
*per-window* argument (``run(..., external_load=)``), not executor
state: an executor is built once per deployed schedule - the paper's
long-lived dispatcher per chunk - and the memo is kept per co-load value
(:attr:`ExternalLoad.key`), so signatures learned under one co-load
survive every window in which it holds.

Execution jitter is not executor state either: task ``t``'s jitter in
chunk-local stage ``s`` is the first lognormal of a stream keyed by
``(platform name, schedule key, t, s)`` - nothing of the executor,
tenant, application or external load enters the draw - and
:func:`_jitter_column` memoises a window's ``n_tasks`` of them per
stage as one column, all its streams set up in one vectorised pass.
Neither is the tenant executor state: who a window is served
for is a *per-window* tag (``run(..., tenant=)``, ``SimWindow.tenant``)
that only :meth:`~SimulatedPipelineExecutor.report_run` reads, so
recorded spans carry no tenant and one result can be handed to many.
Together that makes a window's result a pure function of (platform,
application, chunks, external load, window arguments) - of *what* was
deployed, not of who deployed it - which is what lets every tenant and
same-platform shard share one executor and one result per window key
(:class:`repro.core.plan_cache.Deployment`); :meth:`run` itself always
runs the DES.

The loop and its oracle share the float-residue policy: the server
whose phase defines ``dt`` has its remaining work snapped to exactly
``0.0`` after the advance (``remaining -= dt * rate`` with ``dt =
remaining / rate`` leaves magnitude-dependent residue otherwise), and
phase completion compares against a *relative* epsilon (``remaining <=
phase_total * 1e-12``), so large ``work_s`` values no longer shed
spurious near-zero-``dt`` micro-events.

Batching: :func:`simulate_batch` runs many independent windows - all
tenants of a serve tick, all autotuner measurements of a round - in one
call.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PipelineError, ReproError
from repro.obs.attribution import ChunkLoad
from repro.obs.metrics import metrics
from repro.obs.spans import Span, record_span
from repro.obs.tracer import tracer
from repro.runtime.faults import FaultInjector
from repro.runtime.pipeline import _check_chunk_cover
from repro.soc.cost_model import StageCost
from repro.soc.interference import ExternalLoad, external_co_load
from repro.soc.platform import Platform
from repro.soc.timer import lognormal_draws
from repro.stage import Application, Chunk

#: Relative run-to-run jitter of a single stage execution (smaller than
#: the timer's measurement noise; real kernels are quite repeatable).
_EXEC_NOISE_SIGMA = 0.01

_IDLE = -1
_INF = float("inf")

#: Phase completion epsilon, *relative* to the phase's total duration.
#: An absolute epsilon is magnitude-blind: ``remaining -= dt * rate``
#: after ``dt = remaining / rate`` leaves residue on the order of one
#: ulp of the phase total, which for large ``work_s`` dwarfs any fixed
#: threshold and used to produce spurious micro-events.
_REL_EPS = 1e-12

#: Columns the :func:`_jitter_column` memo keeps.  Sized from the
#: measured key spaces (seed 7) - 1 027 columns of 30 tasks in the paper
#: campaign (~1.2 MiB), 9 / 9 / 24 columns of 6 tasks in the steady,
#: overload and cold-plan chaos fleet soaks - with 2x headroom, so no
#: workload evicts and a full memo stays ~2.5 MiB.
_NOISE_MEMO_SIZE = 1 << 11


@functools.lru_cache(maxsize=_NOISE_MEMO_SIZE)
def _jitter_column(platform_name: str, schedule_key: str, stage: int,
                   n_tasks: int) -> Tuple[float, ...]:
    """Execution jitter of one chunk-local stage of one schedule on one
    SoC, for every task of an ``n_tasks`` window.

    Task ``t``'s jitter is the first lognormal of its own stream, keyed
    by the blake2b digest of ``platform|schedule|t|stage`` - a pure
    function of exactly those inputs, so the memo is exact and shared
    by every executor in the process.  The column's streams are set up
    in one :func:`~repro.soc.timer.lognormal_draws` pass.
    """
    seeds = [
        int.from_bytes(hashlib.blake2b(
            f"{platform_name}|{schedule_key}|{task}|{stage}".encode(),
            digest_size=8,
        ).digest(), "little")
        for task in range(n_tasks)
    ]
    return tuple(lognormal_draws(seeds, _EXEC_NOISE_SIGMA, 1)[:, 0].tolist())


@dataclass
class SimulatedRunResult:
    """Outcome of a simulated pipeline run.

    Attributes:
        n_tasks: Tasks streamed through.
        total_s: Virtual time from start to last completion.
        completion_times_s: Per-task completion timestamps.
        steady_interval_s: Steady-state per-task interval (the pipeline's
            effective latency; the quantity Table 3/4 report per task).
        chunk_busy_s: Busy virtual seconds per chunk index.
        chunk_pu: PU class per chunk index.
        spans: Per-(chunk, task) execution spans when tracing was
            requested (``run(..., record_trace=True)``); empty otherwise.
        arrival_times_s: When each task became available.  All zero for
            the default backlogged run; set by ``arrival_period_s``.
        n_events: Event-loop iterations the run took - the DES cost
            metric the micro-event regression tests bound, and a strong
            cross-engine equivalence signal.
    """

    n_tasks: int
    total_s: float
    completion_times_s: List[float]
    steady_interval_s: float
    chunk_busy_s: Dict[int, float] = field(default_factory=dict)
    chunk_pu: Dict[int, str] = field(default_factory=dict)
    spans: List[Span] = field(default_factory=list)
    arrival_times_s: List[float] = field(default_factory=list)
    n_events: int = 0

    def end_to_end_latencies_s(self) -> List[float]:
        """Per-task arrival-to-completion latency.

        For a backlogged run (all arrivals at 0) this is dominated by
        queueing behind earlier tasks; with a real arrival period it is
        the sensor-to-result latency a deployment cares about.
        """
        arrivals = self.arrival_times_s or [0.0] * self.n_tasks
        return [
            completion - arrival
            for completion, arrival in zip(self.completion_times_s,
                                           arrivals)
        ]

    def keeps_up_with_arrivals(self) -> bool:
        """Whether end-to-end latency stays bounded (no divergent queue):
        the last task's latency must not exceed 1.5 times the median -
        a growing backlog shows up as a rising tail."""
        latencies = self.end_to_end_latencies_s()
        if len(latencies) < 4:
            return True
        median = sorted(latencies)[len(latencies) // 2]
        return latencies[-1] <= 1.5 * max(median, 1e-12)

    @property
    def throughput_tasks_per_s(self) -> float:
        if self.steady_interval_s <= 0:
            return float("inf")
        return 1.0 / self.steady_interval_s

    def utilization(self, chunk_index: int) -> float:
        """Busy fraction of the run for one chunk."""
        if self.total_s <= 0:
            return 0.0
        return self.chunk_busy_s.get(chunk_index, 0.0) / self.total_s


class _VectorEngine:
    """The DES's event kernel.

    A window is compiled before it is simulated.  Once per executor,
    each chunk server's *phase program*: per stage an overhead step iff
    ``overhead_s > 0`` and a work step iff there was no overhead step
    or ``work_s > 0`` - so a zero-work stage behind an overhead makes
    no event and a zero-overhead stage makes exactly one, as in the
    reference loop (a positive ``work_s`` stays positive under any
    jitter short of float underflow).  Once per window,
    :meth:`_durations` lays out every step of every task, task-major,
    so a server's position is one slot index into flat tables.  The
    loop then only bumps slots: servers take tasks in FIFO order, so a
    server's queue is the pair of counters ``started[i] < ready[i]``,
    read only after an arrival or a finish somewhere.

    Rates are memoized per *phase signature* - the tuple of per-server
    phase codes (``-1`` idle, else ``stage * 2 + work_flag``) - because
    between events the instantaneous rate list is a pure function of
    that signature plus the window's external load, so the memo holds
    one signature table per co-load value.
    """

    def __init__(self, executor: "SimulatedPipelineExecutor"):
        # No reference back to the executor: it owns the engine, and a
        # cycle would leave every released placement to the cyclic GC.
        self.depth = executor.depth
        self.n = len(executor.chunks)
        self.costs = executor._costs
        self.pu_class = [chunk.pu_class for chunk in executor.chunks]
        #: Chunk offsets: the dropout check keys on *global* stage indices.
        self.starts = [chunk.start for chunk in executor.chunks]
        self.platform = executor.platform
        self.total_other = max(len(self.platform.pu_classes()) - 1, 0)
        self.noise_key = (executor.platform.name, executor._schedule_key)
        self.injector = executor._injector
        #: Per server, its program: ``(phase code, overhead_s or
        #: work_s)`` per step, and the codes alone.
        self.programs: List[List[Tuple[int, float]]] = []
        self.codes: List[List[int]] = []
        for costs in self.costs:
            program: List[Tuple[int, float]] = []
            for stage, cost in enumerate(costs):
                steps = []
                if cost.overhead_s > 0.0:
                    steps.append((stage * 2, cost.overhead_s))
                if not steps or cost.work_s > 0.0:
                    steps.append((stage * 2 + 1, cost.work_s))
                program.extend(steps)
            self.programs.append(program)
            self.codes.append([code for code, _ in program])
        #: co-load key (None: no external load) -> signature ->
        #: (server, rate) per active server.
        self.rate_caches: Dict[Optional[tuple],
                               Dict[Tuple[int, ...], tuple]] = {}

    def _durations(self, n_tasks: int) -> List[List[float]]:
        """One window's duration tables: per server, step ``k`` of task
        ``t`` at slot ``t * len(program) + k``, ``work_s * jitter`` for
        a work step - built a step's column at a time, one jitter
        column each."""
        name, key = self.noise_key
        return [
            list(chain.from_iterable(zip(*[
                [value * jitter for jitter in
                 _jitter_column(name, key, code >> 1, n_tasks)]
                if code & 1 else [value] * n_tasks
                for code, value in program
            ])))
            for program in self.programs
        ]

    # -- instantaneous rates -------------------------------------------
    def _rates_for(self, key: Tuple[int, ...],
                   external: Optional[ExternalLoad]) -> tuple:
        """``(server, rate)`` of every active server under one phase
        signature.

        One pass over the active set, using the same scalar model calls
        as the reference loop so cached rates are bit-equal to what
        a per-event recomputation would produce.
        """
        active = [i for i in range(self.n) if key[i] != -1]
        busy_classes = {self.pu_class[i] for i in active}
        total_demand = 0.0
        for i in active:
            if key[i] & 1:
                total_demand += self.costs[i][key[i] >> 1].demand_gbps
        if external is not None:
            total_demand += external.demand_gbps
        rates: List[float] = []
        for i in active:
            if not key[i] & 1:
                rates.append(1.0)
                continue
            cost = self.costs[i][key[i] >> 1]
            pu_class = self.pu_class[i]
            co_load = external_co_load(
                busy_classes, pu_class, external, self.total_other,
            )
            rate = self.platform.instantaneous_rate(
                memory_boundedness=cost.memory_boundedness,
                pu_class=pu_class,
                demand_gbps=cost.demand_gbps,
                total_demand_gbps=total_demand,
                co_load=co_load,
            )
            if external is not None:
                # A foreign co-runner on the *same* class time-shares
                # the cluster (fair-share split).
                share = external.busy.get(pu_class, 0.0)
                if share > 0.0:
                    rate /= 1.0 + share
            rates.append(rate)
        return tuple(zip(active, rates))

    # -- the event loop ------------------------------------------------
    def run_window(
        self,
        n_tasks: int,
        record_trace: bool,
        arrivals: List[float],
        external: Optional[ExternalLoad],
    ):
        n = self.n
        depth = self.depth
        tables = self._durations(n_tasks)
        codes = [program_codes * n_tasks for program_codes in self.codes]
        per_task = [len(program) for program in self.programs]
        rate_cache = self.rate_caches.setdefault(
            None if external is None else external.key, {}
        )
        injector = self.injector
        remaining = [0.0] * n
        phase_eps = [-1.0] * n
        busy = [0.0] * n
        sig = [_IDLE] * n
        slot = [0] * n      # position in the server's tables
        started = [0] * n   # tasks server i has begun, of the ready[i]
        ready = [0] * (n + 1)  # handed to it: issued, or done upstream
        now = 0.0
        issued = 0
        done = 0
        events = 0
        completed: List[float] = []
        spans: List[Span] = []
        span_starts: Dict[int, float] = {}
        handoff = False
        dirty = True
        pairs: tuple = ()

        while done < n_tasks:
            events += 1
            # Admit work: the first server off the arrival stream, the
            # others off what their upstream neighbour has finished.
            waiting = (sig[0] == _IDLE and issued < n_tasks
                       and issued - done < depth)
            if waiting and arrivals[issued] <= now + 1e-15:
                waiting = False
                ready[0] = issued = issued + 1
                handoff = True
            if handoff:
                handoff = False
                for i in range(n):
                    if sig[i] == _IDLE and started[i] < ready[i]:
                        if injector is not None:
                            # Task ``started[i]`` enters the chunk's
                            # first stage: a dead PU raises here.
                            injector.check_dropout(
                                self.pu_class[i], self.starts[i],
                                started[i])
                        started[i] += 1
                        at = slot[i]
                        remaining[i] = total = tables[i][at]
                        phase_eps[i] = total * _REL_EPS
                        sig[i] = codes[i][at]
                        if record_trace:
                            span_starts[i] = now
                        dirty = True

            # Instantaneous rates: recomputed (or recalled) only when
            # the phase signature changed since the last event.
            if dirty:
                key = tuple(sig)
                pairs = rate_cache.get(key)
                if pairs is None:
                    pairs = rate_cache[key] = self._rates_for(
                        key, external)
                dirty = False
            if not pairs:
                if waiting and arrivals[issued] > now:
                    now = arrivals[issued]  # idle until the next arrival
                    continue
                raise PipelineError(
                    "pipeline deadlock: nothing active, tasks pending"
                )

            # Advance to the next phase completion (or next arrival,
            # whichever lets the first chunk admit sooner).
            dt = _INF
            snap = -1
            for i, rate in pairs:
                cand = remaining[i] / rate
                if cand < dt:
                    dt = cand
                    snap = i
            if dt < 0.0:
                dt = 0.0
            if waiting and arrivals[issued] > now:
                cap = arrivals[issued] - now
                if cap < dt:
                    dt = cap
                    snap = -1
            now += dt

            # Drain every active server by dt.  The one defining dt
            # drains exactly - no float residue survives it - and any
            # whose phase is over moves on, in server order like the
            # reference scan.
            for i, rate in pairs:
                busy[i] += dt
                if i != snap:
                    left = remaining[i] - dt * rate
                    if left > phase_eps[i]:
                        remaining[i] = left
                        continue
                dirty = True
                slot[i] = at = slot[i] + 1
                if at < started[i] * per_task[i]:
                    remaining[i] = total = tables[i][at]
                    phase_eps[i] = total * _REL_EPS
                    sig[i] = codes[i][at]
                    continue
                sig[i] = _IDLE
                ready[i + 1] += 1
                handoff = True
                if record_trace:
                    spans.append(record_span(
                        chunk_index=i,
                        pu_class=self.pu_class[i],
                        task_id=started[i] - 1,
                        start_s=span_starts.pop(i, now),
                        end_s=now,
                    ))
                if i + 1 == n:
                    done += 1
                    completed.append(now)

        return completed, spans, dict(enumerate(busy)), now, events


@dataclass(frozen=True)
class SimWindow:
    """One independent simulation window of a batch.

    Attributes:
        executor: The executor whose pipeline the window runs on.
        n_tasks: Tasks streamed through the window.
        record_trace: Forwarded to :meth:`SimulatedPipelineExecutor.run`.
        arrival_period_s: Forwarded likewise.
        external_load: Forwarded likewise - the co-runner load this
            window (not the executor) is simulated under.
        tenant: Forwarded likewise - who the window is served for; a
            tag on what the tracer is told, never part of the result.
        remembered: The result the caller already holds for exactly
            this window (same executor, external load and arguments -
            a window is a pure function of those, whoever it was first
            served for), handed back instead of paying for the DES
            again; ``None`` simulates.  Whether it holds is the
            caller's call.  Not valid with a fault injector, which is
            stateful.
    """

    executor: "SimulatedPipelineExecutor"
    n_tasks: int
    record_trace: bool = False
    arrival_period_s: Optional[float] = None
    external_load: Optional[ExternalLoad] = None
    tenant: Optional[str] = None
    remembered: Optional[SimulatedRunResult] = None

    def run(self) -> SimulatedRunResult:
        """This window's result: the DES on its executor, or the
        remembered result reported as the run would have been."""
        if self.remembered is not None:
            self.executor.report_run(self.remembered, self.tenant)
            return self.remembered
        return self.executor.run(
            self.n_tasks,
            record_trace=self.record_trace,
            arrival_period_s=self.arrival_period_s,
            external_load=self.external_load,
            tenant=self.tenant,
        )


@dataclass
class SimBatchOutcome:
    """Result (or captured error) of one window of an error-collecting
    batch: exactly one of ``result``/``error`` is set."""

    result: Optional[SimulatedRunResult] = None
    error: Optional[Exception] = None


def simulate_batch(
    windows: Sequence[SimWindow],
    collect_errors: bool = False,
):
    """Simulate many independent windows in one call.

    The batch entry point the serving layer (all tenants of a tick)
    and the autotuner (all measurements of a round) use.  Each window
    is simulated on its own executor under its own external load, so
    an executor repeated across windows or batches keeps its
    compiled phase programs and its rate memo - unless the caller
    hands the window's result back with it (``SimWindow.remembered``),
    in which case that result is reported and returned in the window's
    place in the order.

    Args:
        windows: The windows, simulated in order (each is independent,
            so order only matters for error reporting).
        collect_errors: When true, a window raising a
            :class:`~repro.errors.ReproError` (e.g. injected PU
            dropout) yields a :class:`SimBatchOutcome` carrying the
            error instead of aborting the batch, and the return value
            is a list of outcomes.  When false (default), results are
            returned directly and the first error propagates.
    """
    if not collect_errors:
        return [window.run() for window in windows]
    outcomes: List[SimBatchOutcome] = []
    for window in windows:
        try:
            result = window.run()
        except ReproError as error:
            outcomes.append(SimBatchOutcome(error=error))
        else:
            outcomes.append(SimBatchOutcome(result=result))
    return outcomes


class SimulatedPipelineExecutor:
    """Simulate a schedule's pipeline execution on a virtual platform.

    Args:
        application: Provides the per-stage work profiles.
        chunks: Contiguous chunk decomposition of the schedule.
        platform: The virtual SoC (ground-truth oracle).
        depth: Multi-buffering depth (TaskObjects in flight); defaults to
            ``len(chunks) + 1``.
        fault_injector: Optional fault-injection layer
            (:mod:`repro.runtime.faults`): a PU dropout raises
            :class:`~repro.errors.PuFailureError` mid-run.  Its plan may
            hold no kernel faults - those the threaded executor injects.
    """

    def __init__(
        self,
        application: Application,
        chunks: Sequence[Chunk],
        platform: Platform,
        depth: Optional[int] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        _check_chunk_cover(application, chunks)
        for chunk in chunks:
            if chunk.pu_class not in platform.pu_classes():
                raise PipelineError(
                    f"{platform.name} has no PU class {chunk.pu_class!r}"
                )
        if fault_injector is not None and fault_injector.plan.kernel_faults:
            raise PipelineError(
                "the simulated back-end injects PU dropouts only; kernel "
                "faults need the threaded executor"
            )
        self.application = application
        self.chunks = list(chunks)
        self.platform = platform
        self.depth = depth if depth is not None else len(self.chunks) + 1
        if self.depth < 1:
            raise PipelineError("multi-buffering depth must be >= 1")
        #: Per chunk, the cost of each of its stages on its PU class.
        self._costs: List[List[StageCost]] = [
            [platform.stage_cost(application.stages[index].work,
                                 chunk.pu_class)
             for index in chunk.stage_indices]
            for chunk in self.chunks
        ]
        self._schedule_key = "|".join(
            f"{c.pu_class}:{c.start}-{c.stop}" for c in self.chunks
        )
        self._injector = fault_injector
        self._chunk_loads: Optional[tuple] = None
        self._run_window = _VectorEngine(self).run_window

    def attribution_inputs(self) -> tuple:
        """Steady-state per-chunk load aggregates for blame decomposition.

        One :class:`~repro.obs.attribution.ChunkLoad` per chunk server:
        overheads and work times sum over the chunk's stages;
        memory-boundedness and bandwidth demand are work-time-weighted
        means, the same time-average the rate machinery applies phase by
        phase.  Pure derived data of the stage costs, so it is computed
        on the first call and kept for the executor's life - calling
        this neither touches engine state nor costs anything when
        attribution is off (nobody calls it).
        """
        if self._chunk_loads is not None:
            return self._chunk_loads
        loads = []
        for chunk, costs in zip(self.chunks, self._costs):
            overhead = sum(c.overhead_s for c in costs)
            work = sum(c.work_s for c in costs)
            if work > 0.0:
                beta = sum(
                    c.memory_boundedness * c.work_s for c in costs
                ) / work
                demand = sum(c.demand_gbps * c.work_s for c in costs) / work
            else:
                beta = 0.0
                demand = 0.0
            loads.append(ChunkLoad(
                pu_class=chunk.pu_class,
                overhead_s=overhead,
                work_s=work,
                memory_boundedness=beta,
                demand_gbps=demand,
            ))
        self._chunk_loads = tuple(loads)
        return self._chunk_loads

    def run(self, n_tasks: int,
            record_trace: bool = False,
            arrival_period_s: Optional[float] = None,
            external_load: Optional[ExternalLoad] = None,
            tenant: Optional[str] = None,
            ) -> SimulatedRunResult:
        """Stream ``n_tasks`` through the pipeline in virtual time.

        Args:
            n_tasks: Tasks to stream.
            record_trace: Also record per-(chunk, task) execution spans
                for Gantt rendering (:mod:`repro.obs.spans`).
            arrival_period_s: When given, task ``t`` only becomes
                available at ``t * arrival_period_s`` (a fixed-rate
                sensor); the default ``None`` models a pre-filled
                backlog, the paper's measurement condition.
            external_load: Co-runners outside this pipeline for this
                window (other tenants on a shared SoC, injected
                interference drift).  External busy load on other
                classes raises the DVFS co-load, external bandwidth
                demand contends on the memory controller, and external
                load on a chunk's *own* class divides its rate by
                ``1 + fraction`` (time-sharing).
            tenant: Tenant/job id the window is served for; handed to
                :meth:`report_run`, nothing of the result depends on it.
        """
        if n_tasks < 1:
            raise PipelineError("n_tasks must be >= 1")
        if arrival_period_s is not None and arrival_period_s < 0:
            raise PipelineError("arrival_period_s must be >= 0")
        arrivals = [
            (arrival_period_s or 0.0) * t for t in range(n_tasks)
        ]
        if external_load is not None and external_load.is_empty:
            external_load = None
        completed, spans, busy_s, now, events = self._run_window(
            n_tasks, record_trace, arrivals, external_load,
        )
        result = SimulatedRunResult(
            n_tasks=n_tasks,
            total_s=now,
            completion_times_s=completed,
            steady_interval_s=self._steady_interval(completed),
            chunk_busy_s=busy_s,
            chunk_pu={i: c.pu_class for i, c in enumerate(self.chunks)},
            spans=spans,
            arrival_times_s=arrivals,
            n_events=events,
        )
        self.report_run(result, tenant)
        return result

    def report_run(self, result: SimulatedRunResult,
                   tenant: Optional[str] = None) -> None:
        """Tell the observability spine about one window's result.

        Called for every simulated window and for every remembered
        one (``SimWindow.remembered``), so an exported trace cannot
        tell the two apart.  ``tenant`` tags the run span and every
        emitted chunk span (the multi-tenant tracks); the result's own
        span list is read, never re-tagged - many tenants may hold it.
        Strictly post-hoc: one guard check per window (never per
        event), so the DES loop stays allocation-free when tracing is
        off - the overhead benchmark pins this down.
        """
        trc = tracer()
        if not trc.enabled:
            return
        with trc.span("simulator.run", "runtime",
                      n_tasks=result.n_tasks, tenant=tenant,
                      total_s=result.total_s) as run_id:
            pass
        trc.emit_virtual_spans(result.spans, result.total_s,
                               parent_id=run_id, tenant=tenant)
        reg = metrics()
        reg.counter("sim.runs")
        reg.observe("sim.total_s", result.total_s)

    # -- post-run ------------------------------------------------------
    def _steady_interval(self, completions: Sequence[float]) -> float:
        """Per-task interval after pipeline fill (warmup excluded, like
        the paper's measurements excluding GPU initialization)."""
        n = len(completions)
        if n == 1:
            return completions[0]
        warm = min(self.depth, n - 1)
        span = completions[-1] - completions[warm - 1]
        return span / (n - warm)

    def measured_latency(self, result: SimulatedRunResult) -> float:
        """One noisy timer observation of a run's steady interval."""
        rng = self.platform.measurement_rng(
            "pipeline", self._schedule_key, result.n_tasks
        )
        return self.platform.measure(result.steady_interval_s, rng)

    def measure_per_task_latency(self, n_tasks: int = 30) -> float:
        """One noisy timer observation of the steady per-task latency
        (the number the paper's 30-task runs report)."""
        return self.measured_latency(self.run(n_tasks))

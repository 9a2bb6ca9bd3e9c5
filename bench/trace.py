"""Outside-in tracing: timing wrappers on the layers' public callables.

The harness - never the program - installs a wrapper on each public
boundary listed in :data:`TARGETS`.  A wrapper records one span
(name, start, end, parent) on an in-memory stack and, where the
boundary has a result worth counting (admission decisions, plan-cache
misses, solver statistics, DES events), bumps an exact counter.  The
wrappers exist only around the traced repeat: :func:`install` swaps
them in, :func:`uninstall` puts the *same* original objects back, so
the untraced repeats run stock code.

A span's *self time* is its duration minus the time its children
cover, so the self times under one root sum to the root's duration by
construction - the per-layer split accounts for the whole traced wall,
with the harness's own share visible as the root's self time.

Two choices keep the traced repeat close to the untraced ones.  Spans
live in parallel flat lists, not one object each: a million small
containers would make every cyclic-GC pass walk them.  And a *leaf*
target - a pure function called ~10^6 times per soak - is aggregated
(calls, seconds, and the time it covers in its caller) instead of
recorded call by call.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MARK = "__bench_wrapper__"


class Tracer:
    """Spans and exact counters of one traced repeat."""

    def __init__(self) -> None:
        # One span per index across these lists; parent -1 for a root.
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        #: Per span: seconds covered by aggregated leaf calls made
        #: directly from it (subtracted from its self time).
        self.covered: List[float] = []
        #: (leaf name, root name) -> [seconds, calls].
        self.leaf_totals: Dict[Tuple[str, str], List[float]] = {}
        self.counts: Dict[str, float] = {}
        #: (app kind, app seed) pairs materialized (apps are rebuilt
        #: per arrival; the distinct share is the memoisable part).
        self.materialized: set = set()
        self._stack: List[int] = []
        #: Leaf name -> [seconds, calls] under the root now open.
        self._leaves: Dict[str, List[float]] = {}
        self._in_leaf = False

    def bump(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the exact counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str) -> int:
        stack = self._stack
        index = len(self.names)
        self.names.append(name)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        self.covered.append(0.0)
        stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the harness opens itself (roots, the report dump)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            if not self._stack:
                # A root closed: bank the leaf time spent under it.
                for leaf, (seconds, calls) in self._leaves.items():
                    total = self.leaf_totals.setdefault(
                        (leaf, name), [0.0, 0])
                    total[0] += seconds
                    total[1] += calls
                self._leaves.clear()

    # -- aggregation ---------------------------------------------------
    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus children and leaves."""
        out = [self.duration(i) - self.covered[i]
               for i in range(len(self.names))]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.duration(index)
        return out

    def self_by_name(self, root: str) -> Dict[str, float]:
        """Name -> summed self time of everything under the roots
        called ``root``; sums to those roots' duration."""
        inside: List[bool] = []
        for name, parent in zip(self.names, self.parents):
            inside.append(name == root if parent < 0 else inside[parent])
        out: Dict[str, float] = {}
        for name, own, keep in zip(self.names, self.self_times(), inside):
            if keep:
                out[name] = out.get(name, 0.0) + own
        for (leaf, under), (seconds, _) in self.leaf_totals.items():
            if under == root:
                out[leaf] = out.get(leaf, 0.0) + seconds
        return out

    def total(self, name: str, not_under: Optional[str] = None) -> float:
        """Summed duration of the outermost spans called ``name``
        (a span nested in another of the same name is already counted
        by it), skipping those whose direct parent is ``not_under``."""
        total = math.fsum(seconds for (leaf, _), (seconds, _)
                          in self.leaf_totals.items() if leaf == name)
        names, parents = self.names, self.parents
        for index, span_name in enumerate(names):
            if span_name != name:
                continue
            parent = parents[index]
            if parent >= 0 and names[parent] == not_under:
                continue
            while parent >= 0 and names[parent] != name:
                parent = parents[parent]
            if parent < 0:
                total += self.duration(index)
        return total

    def calls(self, name: str) -> int:
        """How many times the boundary ``name`` was crossed."""
        return self.names.count(name) + int(sum(
            calls for (leaf, _), (_, calls) in self.leaf_totals.items()
            if leaf == name))

    def to_rows(self) -> List[list]:
        """The raw spans, for the spans file."""
        return [list(row) for row in zip(
            self.names, self.starts, self.ends, self.parents)]


# ----------------------------------------------------------------------
# Count hooks: ``before(args) -> token`` and
# ``after(tracer, token, args, result)`` around the wrapped call.
# ----------------------------------------------------------------------
def _after_materialize(tracer: Tracer, _token, args, _result) -> None:
    event = args[0]
    tracer.materialized.add((event.app_kind, event.app_seed))


def _after_evaluate(tracer: Tracer, _token, _args, decision) -> None:
    if decision.action == "admit":
        tracer.bump("serve.admission_admits")


def _before_plan_for(args) -> int:
    return args[0].misses


def _after_plan_for(tracer: Tracer, misses_before, args, _result) -> None:
    missed = args[0].misses > misses_before
    tracer.bump("core.plan_cache_misses" if missed
                else "core.plan_cache_hits")


def _before_minimize(args) -> Tuple[int, int]:
    stats = args[0].stats
    return stats.decisions, stats.propagations


def _after_minimize(tracer: Tracer, before, args, _result) -> None:
    stats = args[0].stats
    tracer.bump("solver.decisions", stats.decisions - before[0])
    tracer.bump("solver.propagations", stats.propagations - before[1])


def _after_simulate_batch(tracer: Tracer, _token, args, _result) -> None:
    tracer.bump("runtime.windows", len(args[0]))


def _after_run(tracer: Tracer, _token, _args, result) -> None:
    tracer.bump("runtime.events", result.n_events)


def _after_tune(tracer: Tracer, _token, _args, result) -> None:
    tracer.bump("core.autotune_gain_log",
                math.log(result.autotuning_gain))


#: Span names aggregated instead of recorded per call: pure functions
#: a soak calls ~10^6 times (1.3 M on ``fleet_overload``).
LEAVES = frozenset({"core.schedule_predict"})

#: (module, class or None, attribute, span name, before, after).
#: Module-level functions are patched *as bound in the module that
#: calls them* (``from x import f`` copies the reference).
TARGETS: Tuple[Tuple[str, Optional[str], str, str,
                     Optional[Callable], Optional[Callable]], ...] = (
    ("repro.traffic.driver", None, "materialize",
     "traffic.materialize", None, _after_materialize),
    ("repro.traffic.driver", "OpenLoopDriver", "run",
     "traffic.drive", None, None),
    ("repro.traffic.slo", None, "evaluate",
     "traffic.evaluate", None, None),
    ("repro.traffic.slo", "TrafficReport", "to_dict",
     "traffic.serialize", None, None),
    ("repro.fleet.router", "FleetRouter", "submit",
     "fleet.submit", None, None),
    ("repro.fleet.router", "FleetRouter", "step",
     "fleet.step", None, None),
    ("repro.fleet.router", "FleetRouter", "choose_shard",
     "fleet.choose_shard", None, None),
    ("repro.fleet.router", "FleetRouter", "close_stepped",
     "fleet.close", None, None),
    ("repro.serve.server", "PipelineServer", "step",
     "serve.step", None, None),
    ("repro.serve.server", "PipelineServer", "try_admit",
     "serve.try_admit", None, None),
    ("repro.serve.admission", "AdmissionController", "evaluate",
     "serve.admission_evaluate", None, _after_evaluate),
    ("repro.core.plan_cache", "PlanCache", "plan_for",
     "core.plan_for", _before_plan_for, _after_plan_for),
    ("repro.core.schedule", "Schedule", "chunk_times",
     "core.schedule_predict", None, None),
    ("repro.core.schedule", "Schedule", "predicted_latency",
     "core.schedule_predict", None, None),
    ("repro.core.profiler", "BTProfiler", "profile",
     "core.profile", None, None),
    ("repro.core.profiler", "BTProfiler", "profile_both",
     "core.profile", None, None),
    ("repro.core.optimizer", "BTOptimizer", "optimize",
     "core.optimize", None, None),
    ("repro.core.autotuner", "Autotuner", "tune",
     "core.autotune", None, _after_tune),
    ("repro.solver.search", "Solver", "minimize",
     "solver.minimize", _before_minimize, _after_minimize),
    ("repro.serve.server", None, "simulate_batch",
     "runtime.simulate_batch", None, _after_simulate_batch),
    ("repro.core.autotuner", None, "simulate_batch",
     "runtime.simulate_batch", None, _after_simulate_batch),
    ("repro.runtime.simulator", "SimulatedPipelineExecutor", "run",
     "runtime.run", None, _after_run),
    ("repro.baselines.homogeneous", None, "measure_baselines",
     "baselines.measure", None, None),
    ("repro.fleet.router", None, "get_platform",
     "soc.platform_build", None, None),
    ("repro.soc.platforms", None, "get_platform",
     "soc.platform_build", None, None),
    ("repro.traffic.driver", None, "build_synthetic_application",
     "apps.build", None, None),
    ("repro.traffic.driver", None, "build_bandwidth_bound_application",
     "apps.build", None, None),
    ("repro.traffic.driver", None, "_memory_bound_application",
     "apps.build", None, None),
)


def _owner(module: str, cls: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


def _wrap(tracer: Tracer, name: str, fn: Callable,
          before: Optional[Callable], after: Optional[Callable],
          ) -> Callable:
    open_span, close_span = tracer._open, tracer._close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        index = open_span(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index)
        if after is not None:
            after(tracer, token, args, result)
        return result

    setattr(wrapper, _MARK, True)
    return wrapper


def _wrap_leaf(tracer: Tracer, name: str, fn: Callable) -> Callable:
    clock = time.perf_counter
    stack, covered, leaves = tracer._stack, tracer.covered, tracer._leaves

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tally = leaves.get(name)
        if tally is None:
            tally = leaves[name] = [0.0, 0]
        tally[1] += 1
        if tracer._in_leaf or not stack:
            # Nested in another leaf call: its time is already counted.
            return fn(*args, **kwargs)
        tracer._in_leaf = True
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - started
            tracer._in_leaf = False
            tally[0] += elapsed
            covered[stack[-1]] += elapsed

    setattr(wrapper, _MARK, True)
    return wrapper


#: What :func:`uninstall` needs: (owner, attribute, original object).
Installed = List[Tuple[Any, str, Any]]


def install(tracer: Tracer) -> Installed:
    """Swap a timing wrapper in on every target; returns the handle
    :func:`uninstall` restores from."""
    if installed():
        raise RuntimeError("bench.trace wrappers are already installed")
    handle: Installed = []
    for module, cls, attr, name, before, after in TARGETS:
        owner = _owner(module, cls)
        original = vars(owner)[attr]
        setattr(owner, attr,
                _wrap_leaf(tracer, name, original) if name in LEAVES
                else _wrap(tracer, name, original, before, after))
        handle.append((owner, attr, original))
    return handle


def uninstall(handle: Installed) -> None:
    """Put every original object back (the very same objects)."""
    for owner, attr, original in handle:
        setattr(owner, attr, original)


def installed() -> List[str]:
    """Dotted names of targets that currently carry a wrapper; empty
    when the program is running stock code."""
    out = []
    for module, cls, attr, _name, _before, _after in TARGETS:
        if getattr(vars(_owner(module, cls))[attr], _MARK, False):
            out.append(".".join(p for p in (module, cls, attr) if p))
    return out


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Wrappers installed for the body, removed afterwards."""
    handle = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(handle)

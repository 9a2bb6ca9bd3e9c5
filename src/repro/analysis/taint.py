"""Taint lattice and source/launder/sink tables for the flow check.

The flow analysis tracks *sets of taint kinds* per value.  A kind names
one family of nondeterminism:

========================  ==============================================
kind                      introduced by
========================  ==============================================
``WALL-CLOCK``            ``time.time``/``perf_counter``
                          and datetime "now" reads
``GLOBAL-RNG``            module-level ``random.*`` / ``np.random.*``
                          draws (and ``default_rng()`` with no seed)
``ENV-READ``              ``os.environ`` / ``os.getenv`` reads
``UNORDERED``             a ``set``/``frozenset`` value itself
``UNORDERED-ITER``        a value whose *selection or position* came
                          from iterating an unordered collection
``THREAD-ID``             thread/process identity reads
========================  ==============================================

The empty set is the lattice bottom ("deterministic"); join is set
union.

This module is pure data + tiny predicates; the per-function check
lives in :mod:`repro.analysis.flow`.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Dict, FrozenSet, Optional, Tuple

from repro.analysis.rules import dotted_name

Taint = AbstractSet[str]

WALL_CLOCK = "WALL-CLOCK"
GLOBAL_RNG = "GLOBAL-RNG"
ENV_READ = "ENV-READ"
UNORDERED = "UNORDERED"
UNORDERED_ITER = "UNORDERED-ITER"
THREAD_ID = "THREAD-ID"

#: np.random constructors that *are* the approved seeded pattern.
_SEEDED_RNG_OK = (
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "BitGenerator", "MT19937",
)
#: stdlib random attributes that construct isolated generators.
_STDLIB_RNG_OK = ("Random", "SystemRandom", "getstate")

#: kind -> the rule id a sink hit reports under.
RULE_FOR_KIND: Dict[str, str] = {
    WALL_CLOCK: "FLOW-WALL-CLOCK",
    GLOBAL_RNG: "FLOW-GLOBAL-RNG",
    ENV_READ: "FLOW-ENV-READ",
    UNORDERED: "FLOW-UNORDERED-ITER",
    UNORDERED_ITER: "FLOW-UNORDERED-ITER",
    THREAD_ID: "FLOW-THREAD-ID",
}

#: Every id the flow rule lists in the lint catalog.
ALL_FLOW_RULES: Tuple[str, ...] = (
    "FLOW-WALL-CLOCK", "FLOW-GLOBAL-RNG", "FLOW-ENV-READ",
    "FLOW-UNORDERED-ITER", "FLOW-THREAD-ID", "BAD-SUPPRESSION",
)

#: rule id -> one-line summary (``repro lint --list-rules``).
RULE_SUMMARIES: Dict[str, str] = {
    "FLOW-WALL-CLOCK": ("wall-clock read (time.time/perf_counter) "
                        "flows into a report/artifact sink"),
    "FLOW-GLOBAL-RNG": ("module-level RNG draw flows into a "
                        "report/artifact sink"),
    "FLOW-ENV-READ": ("os.environ read flows into a report/artifact "
                      "sink"),
    "FLOW-UNORDERED-ITER": ("set/unordered iteration order flows into "
                            "a report/artifact sink"),
    "FLOW-THREAD-ID": ("thread/process identity flows into a "
                       "report/artifact sink"),
    "BAD-SUPPRESSION": ("bt-lint suppression without the required "
                        "'-- justification' suffix"),
}

# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
#: dotted call name -> taint kind.  ``time.monotonic`` is deliberately
#: absent: it is the *sanctioned* clock for deadline/timeout control
#: flow (SPSC waits), and control dependence is out of scope
#: here - only ``time.time``/``perf_counter`` measurement values that
#: could land in report bytes are tracked as data.
_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "date.today", "datetime.date.today",
}

_THREAD_ID_CALLS = {
    "threading.get_ident", "threading.get_native_id",
    "threading.current_thread", "os.getpid", "os.getppid",
}

_ENV_CALLS = {"os.getenv", "os.environ.get", "environ.get"}


def source_kind(call: ast.Call) -> Optional[str]:
    """The taint kind a call introduces, if it is a source."""
    name = dotted_name(call.func)
    if name in _CLOCK_CALLS:
        return WALL_CLOCK
    if name in _THREAD_ID_CALLS:
        return THREAD_ID
    if name in _ENV_CALLS:
        return ENV_READ
    if name.startswith("random."):
        if name.split(".", 1)[1] not in _STDLIB_RNG_OK:
            return GLOBAL_RNG
    elif name.startswith(("np.random.", "numpy.random.")):
        attr = name.rsplit(".", 1)[1]
        if attr not in _SEEDED_RNG_OK:
            return GLOBAL_RNG
        if attr == "default_rng" and not call.args and not call.keywords:
            # Unseeded default_rng() pulls OS entropy.
            return GLOBAL_RNG
    return None


def is_env_read(node: ast.Subscript) -> bool:
    """``os.environ[...]`` subscript reads."""
    return dotted_name(node.value) in ("os.environ", "environ")


# ----------------------------------------------------------------------
# Launderers
# ----------------------------------------------------------------------
#: Builtins whose result does not depend on argument *order*: they
#: clear the unordered kinds.  ``sum`` is deliberately absent - float
#: summation is order-dependent, so summing a set stays tainted.
_ORDER_INSENSITIVE = {"sorted", "len", "min", "max", "any", "all"}

#: Calls that materialise an iteration order out of an unordered
#: collection: the *container* kind becomes the *element* kind.
_ORDERING_CASTS = {"list", "tuple"}

#: Calls that build a fresh unordered collection.
_SET_BUILDERS = {"set", "frozenset"}


def launder(call: ast.Call, joined_args: Taint) -> Optional[Taint]:
    """The result taint of a sanctioned laundering call, or ``None``
    if this call is not a launderer."""
    name = dotted_name(call.func)
    if name in _ORDER_INSENSITIVE:
        # sorted()/len()/min()... fix or ignore iteration order.
        return joined_args - {UNORDERED, UNORDERED_ITER}
    if name in _ORDERING_CASTS:
        # list(s)/tuple(s) materialise an order out of the container.
        if UNORDERED in joined_args:
            return (joined_args - {UNORDERED}) | {UNORDERED_ITER}
        return joined_args
    if name in _SET_BUILDERS:
        # Building a set launders the *element order* the input had,
        # but the result is itself unordered again.
        return (joined_args - {UNORDERED_ITER}) | {UNORDERED}
    terminal = name.rsplit(".", 1)[-1]
    if (terminal in _SEEDED_RNG_OK
            and (name.startswith(("np.random.", "numpy.random."))
                 or terminal == "default_rng")):
        # A *seeded* generator is exactly as deterministic as its
        # seed; a bare ``default_rng()`` pulls OS entropy.
        if call.args or call.keywords:
            return joined_args
        return joined_args | {GLOBAL_RNG}
    return None


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
#: terminal call name -> (description, positional index of the payload
#: argument; ``None`` = every argument is sensitive).
SINK_CALLS: Dict[str, Tuple[str, Optional[int]]] = {
    "write_json_report": ("serialized JSON report", 1),
    "write_artifact": ("checksummed artifact payload", 2),
    "atomic_write_text": ("atomically written artifact text", 1),
    "artifact_sha256": ("artifact checksum input", 0),
    "save": ("serialized artifact", 0),
}

#: Constructors whose every field lands in a byte-compared or
#: checksummed report.
SINK_CONSTRUCTORS: FrozenSet[str] = frozenset({
    "FleetReport", "SessionReport", "FaultReport",
    "MemoryReport", "EnergyReport", "SoakScenario", "FleetSoakScenario",
    "SimulatedRunResult", "TraceEvent", "TrafficReport", "TrafficTrace",
    "BlameMatrix", "BurnAlert",
})


def sink_for_call(call: ast.Call) -> Optional[Tuple[str, Optional[int]]]:
    """``(description, payload arg index)`` when the call is a sink."""
    func = call.func
    terminal = dotted_name(func).rsplit(".", 1)[-1] or (
        func.attr if isinstance(func, ast.Attribute) else "")
    if terminal in SINK_CALLS:
        return SINK_CALLS[terminal]
    if terminal in SINK_CONSTRUCTORS:
        return (f"{terminal} report field", None)
    return None

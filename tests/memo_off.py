"""Every host memo of the serving path off: the one oracle for all of them.

A memo is correct when the run with it equals the run without it, byte
for byte.  :func:`memos_off` makes every host memo miss for the span of
a ``with`` block:

* ``Deployment.remembered`` answers None: every served window is
  simulated;
* ``PlanCache.deployment_for`` builds from an empty table on every call;
* ``EpochMemo.lookup`` answers None: admission rows, server verdicts,
  co-load views and router choices are derived when asked for;
* ``CachedPlan.predictions`` computes from an empty table;
* ``_jitter_column`` and ``traffic.driver._application`` are their
  ``__wrapped__`` functions in every module that binds them by name;
* ``_VectorEngine._kernels`` starts empty: every pipeline width the
  block simulates compiles its DES kernel afresh, once (a compile per
  window would cost 10-30 ms each).

``CachedPlan.singles`` / ``optimization`` and ``Schedule``'s cached
properties stay: they are lazy attributes of frozen values (the root
conftest's ``always_solve`` checks the singles derivation).

There is no production switch.  Two ways in: the context manager, and
``python -m tests.memo_off <repro args>`` - one ``repro`` command with
every memo off (run from the repository root with ``PYTHONPATH=src``).
``python -m tests.golden memo-off`` runs the whole corpus both ways.
"""

from __future__ import annotations

import contextlib
import json
import sys
from typing import Iterator
from unittest import mock

from repro.core.plan_cache import CachedPlan, Deployment, PlanCache
from repro.runtime import simulator
from repro.serve.placement import EpochMemo
from repro.traffic import driver

#: Counters of a Chrome trace's metrics snapshot that count memo work
#: (verdicts priced and remembered, plan look-ups): the one thing a run
#: with the memos off may write differently.
MEMO_COUNTERS = ("admission.priced", "admission.remembered",
                 "plan_cache.hits")

#: Process-wide ``lru_cache`` memos, replaced wherever they are bound.
_CACHED = (simulator._jitter_column, driver._application)


def _emptied(method, table: str):
    """``method`` run on an emptied ``table``: the memo misses every call."""
    def call(owner, *args):
        getattr(owner, table).clear()
        return method(owner, *args)
    return call


@contextlib.contextmanager
def memos_off() -> Iterator[None]:
    """Every host memo misses inside the block."""
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context
        patch(mock.patch.object(Deployment, "remembered",
                                lambda deployment, external, n_tasks: None))
        patch(mock.patch.object(EpochMemo, "lookup",
                                lambda memo, stamp, key: None))
        patch(mock.patch.object(
            PlanCache, "deployment_for",
            _emptied(PlanCache.deployment_for, "_deployments")))
        patch(mock.patch.object(
            CachedPlan, "predictions",
            _emptied(CachedPlan.predictions, "_predictions")))
        patch(mock.patch.object(simulator._VectorEngine, "_kernels", {}))
        for module in [m for m in sys.modules.values() if m is not None]:
            for name, value in list(vars(module).items()):
                if any(value is cached for cached in _CACHED):
                    patch(mock.patch.object(module, name, value.__wrapped__))
        yield


def comparable(data: bytes) -> bytes:
    """``data`` as the memo-off arm compares it: a JSON document carrying
    a metrics snapshot - a Chrome trace, or a report written under
    ``--trace-out`` - without :data:`MEMO_COUNTERS`, re-serialised; any
    other stream as written."""
    try:
        payload = json.loads(data)
    except ValueError:
        return data
    if not isinstance(payload, dict):
        return data
    snapshot = payload.get("otherData", payload).get("metrics")
    if not isinstance(snapshot, dict):
        return data
    for name in MEMO_COUNTERS:
        snapshot.get("counters", {}).pop(name, None)
    return json.dumps(payload, sort_keys=True).encode()


if __name__ == "__main__":
    from repro.cli import main

    with memos_off():
        raise SystemExit(main(sys.argv[1:]))

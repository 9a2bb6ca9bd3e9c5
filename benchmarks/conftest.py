"""Shared fixtures for the paper-reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper at full
(paper) scale, times the regeneration with pytest-benchmark, prints the
rendered artifact, and asserts the paper's *shape* (who wins, by roughly
what factor, where crossovers fall).  Run with::

    pytest benchmarks/ --benchmark-only
"""

import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.eval.experiments import ExperimentScale  # noqa: E402


@pytest.fixture(scope="session")
def paper_scale():
    """The paper's configuration: 100k points, batch 128, K=20, 30 reps."""
    return ExperimentScale.paper()


def bench_path(name: str) -> str:
    """Where a run writes the ``name`` ledger:
    ``.bench_out/BENCH_<name>.json`` (gitignored), its directory made.
    A checked-in ``BENCH_<name>.json`` changes only when a run is
    copied over it on purpose."""
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), ".bench_out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, f"BENCH_{name}.json")


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark an expensive experiment with a single timed round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1)

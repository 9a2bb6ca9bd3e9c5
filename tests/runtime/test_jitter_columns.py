"""The DES's jitter columns against numpy itself.

``_jitter_column(platform, schedule key, stage, n_tasks)`` sets up the
``n_tasks`` keyed streams of one chunk-local stage in one
``lognormal_draws`` pass.  numpy is the oracle: task ``t``'s entry must
be, bit for bit, ``np.random.default_rng(seed).lognormal(-0.5 * sigma**2,
sigma)`` with the blake2b seed of ``platform|schedule|t|stage`` - the
scalar draw every earlier version of the simulator made.  A window's
duration table is built from those columns, task-major, and must hold
step ``k`` of task ``t`` at slot ``t * len(program) + k``.

The seeded mutants at the bottom are textual edits of the simulator's
own source (asserted to still apply); the same properties must notice
each.
"""

import hashlib
import inspect
import string

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.runtime.simulator as sim
from repro.core import Chunk
from repro.runtime import SimulatedPipelineExecutor
from repro.soc import PLATFORM_NAMES
from repro.soc.cost_model import StageCost
from repro.soc.timer import lognormal_draws
from tests.runtime.test_engine_generated import application_of, platform_with

SIGMA = sim._EXEC_NOISE_SIGMA
EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

names = st.one_of(st.sampled_from(sorted(PLATFORM_NAMES)),
                  st.text(alphabet=string.printable, max_size=16))
schedule_keys = st.one_of(
    st.sampled_from(["big:0-7", "big:0-4|gpu:4-7",
                     "little:0-1|medium:1-2|gpu:2-5|big:5-7"]),
    st.text(alphabet=string.printable, max_size=48))
stages = st.integers(min_value=0, max_value=64)
window_sizes = st.integers(min_value=1, max_value=64)


def scalar_draw(seed, sigma=SIGMA):
    return float(np.random.default_rng(seed).lognormal(
        mean=-0.5 * sigma**2, sigma=sigma))


def oracle(platform_name, schedule_key, task, stage):
    digest = hashlib.blake2b(
        f"{platform_name}|{schedule_key}|{task}|{stage}".encode(),
        digest_size=8,
    ).digest()
    return scalar_draw(int.from_bytes(digest, "little"))


def check_column(platform_name, schedule_key, stage, n_tasks):
    want = [oracle(platform_name, schedule_key, task, stage)
            for task in range(n_tasks)]
    for _ in range(2):  # the fill, then the memoised column
        column = sim._jitter_column(platform_name, schedule_key, stage,
                                    n_tasks)
        assert [x.hex() for x in column] == [x.hex() for x in want]


STAGE_COST = st.builds(
    StageCost,
    overhead_s=st.sampled_from([0.0, 1e-4]),
    work_s=st.sampled_from([0.0, 1e-3, 3.7e-3]),
    memory_boundedness=st.just(0.5),
    demand_gbps=st.just(1.0),
)
COLUMNS = (names, schedule_keys, stages, window_sizes)
TABLES = (st.lists(STAGE_COST, min_size=1, max_size=6),
          st.integers(min_value=1, max_value=12))


def check_table(costs, n_tasks):
    """Every server's duration table, slot by slot, against the phase
    program and the scalar oracle."""
    cut = (len(costs) + 1) // 2
    chunks = [Chunk(0, cut, "big")]
    if cut < len(costs):
        chunks.append(Chunk(cut, len(costs), "gpu"))
    executor = SimulatedPipelineExecutor(
        application_of(len(costs)), chunks, platform_with(costs))
    engine = sim._VectorEngine(executor)
    key = executor._schedule_key
    for program, table in zip(engine.programs, engine._durations(n_tasks)):
        want = [
            value * oracle(executor.platform.name, key, task, code >> 1)
            if code & 1 else value
            for task in range(n_tasks) for code, value in program
        ]
        assert [x.hex() for x in table] == [x.hex() for x in want]


class TestColumns:
    @settings(max_examples=150, deadline=None)
    @given(*COLUMNS)
    def test_matches_inline_derivation(self, platform_name, schedule_key,
                                       stage, n_tasks):
        check_column(platform_name, schedule_key, stage, n_tasks)

    @settings(max_examples=60, deadline=None)
    @given(*TABLES)
    def test_tables_are_task_major(self, costs, n_tasks):
        check_table(costs, n_tasks)


class TestSharedHelper:
    """``lognormal_draws`` is what ``perturb_cells`` and the columns
    both call; a size-1 draw is the scalar one."""

    @pytest.mark.parametrize("sigma", [SIGMA, 0.02, 0.5])
    def test_edge_seeds(self, sigma):
        draws = lognormal_draws(list(EDGE_SEEDS), sigma, 1)
        assert draws.shape == (len(EDGE_SEEDS), 1)
        assert [x.hex() for x in draws[:, 0].tolist()] == [
            scalar_draw(seed, sigma).hex() for seed in EDGE_SEEDS]

    def test_a_size_one_draw_is_the_scalar_one(self):
        seeds = [int(seed) for seed in np.random.default_rng(34).integers(
            0, 2**64, size=2000, dtype=np.uint64)]
        draws = lognormal_draws(seeds, SIGMA, 1)[:, 0].tolist()
        assert draws == [scalar_draw(seed) for seed in seeds]


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------
def plant(monkeypatch, name, *edits):
    """Swap in a simulator ``name`` whose source has ``edits`` applied."""
    source = inspect.getsource(getattr(sim, name))
    for old, new in edits:
        assert source.count(old) == 1, f"mutant no longer applies: {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(sim))
    exec(source, namespace)
    monkeypatch.setattr(sim, name, namespace[name])


HUNT = settings(max_examples=50, deadline=None, derandomize=True,
                database=None, phases=(Phase.generate,))


class TestSeededMutants:
    def test_column_keyed_without_its_stage(self, monkeypatch):
        plant(monkeypatch, "_jitter_column",
              ("|{task}|{stage}", "|{task}"))
        with pytest.raises(AssertionError):
            HUNT(given(*COLUMNS)(check_column))()

    def test_table_interleaved_step_major(self, monkeypatch):
        plant(monkeypatch, "_VectorEngine",
              ("chain.from_iterable(zip(*[", "chain.from_iterable((["))
        with pytest.raises(AssertionError):
            HUNT(given(*TABLES)(check_table))()

    def test_the_unmutated_simulator_survives_the_same_hunts(self):
        HUNT(given(*COLUMNS)(check_column))()
        HUNT(given(*TABLES)(check_table))()

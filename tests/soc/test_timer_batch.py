"""The batched stream setup against numpy itself.

``MeasurementNoise.perturb_cells`` runs the ``SeedSequence`` set-up of
every cell's keyed stream in one vectorised pass instead of one
``Generator(PCG64(seed))`` per cell.  numpy is the oracle: for generated
batches of seeds the pass must yield exactly
``SeedSequence(seed).generate_state(4, np.uint64)``, a ``PCG64`` built
from those words must have ``np.random.PCG64(seed).state``, and every
cell's samples must be, bit for bit, ``true_seconds`` times what a fresh
``Generator(PCG64(seed)).lognormal`` draws.  The seeds 0, 1, 2**32 - 1,
2**32 and 2**64 - 1 are always in the draw: a seed below 2**32 has one
entropy word, one above it two.

The seeded mutants at the bottom are textual edits of the pass's own
source (asserted to still apply); the same properties must notice each.
"""

import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import repro.soc.timer as timer
from repro.errors import PlatformError
from repro.soc.timer import MeasurementNoise, _stable_seed

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
COUNTS = (1, 2, 3, 30)
SIGMAS = (0.01, 0.02, 0.03, 0.5)

seeds = st.one_of(st.sampled_from(EDGE_SEEDS),
                  st.integers(min_value=0, max_value=2**64 - 1))
durations = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
keys = st.tuples(st.text(max_size=6), st.integers(0, 99))


def oracle_samples(true_seconds, seed, sigma, count):
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=count)
    return [x.hex() for x in (true_seconds * draws).tolist()]


def check_states(batch):
    words = timer._seed_words(batch)
    assert words.shape == (len(batch), 4) and words.flags.c_contiguous
    for seed, row in zip(batch, words):
        want = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist(), seed
        assert (np.random.PCG64(timer._SeedWords(row)).state
                == np.random.PCG64(seed).state), seed


def check_seeded_draws(cells, count, sigma):
    """Cells keyed ``(seed,)`` with the blake2b step bypassed, so the
    edge seeds reach the pass as stream seeds."""
    noise = MeasurementNoise(sigma=sigma, seed=0)
    with mock.patch.object(timer, "_stable_seed",
                           lambda root, seed: seed):
        got = noise.perturb_cells(
            [(true_seconds, (seed,)) for true_seconds, seed in cells], count)
    assert len(got) == len(cells)
    for (true_seconds, seed), samples in zip(cells, got):
        assert ([x.hex() for x in samples]
                == oracle_samples(true_seconds, seed, sigma, count)), seed


seeded_cells = st.lists(st.tuples(durations, seeds), min_size=1,
                        max_size=64)


class TestStreamSetup:
    def test_edge_seeds(self):
        check_states(list(EDGE_SEEDS))
        for seed in EDGE_SEEDS:
            check_states([seed])

    @settings(max_examples=200, deadline=None)
    @given(batch=st.lists(seeds, min_size=1, max_size=64))
    def test_generated_batches_are_pcg64_s_states(self, batch):
        check_states(batch)


class TestDraws:
    @settings(max_examples=100, deadline=None)
    @given(cells=seeded_cells, count=st.sampled_from(COUNTS),
           sigma=st.sampled_from(SIGMAS))
    def test_each_cell_draws_its_own_generator_s_lognormal(
            self, cells, count, sigma):
        check_seeded_draws(cells, count, sigma)

    @settings(max_examples=50, deadline=None)
    @given(cells=st.lists(st.tuples(durations, keys), min_size=1,
                          max_size=64),
           count=st.sampled_from(COUNTS), root=seeds)
    def test_streams_are_keyed_by_the_stable_seed(self, cells, count, root):
        noise = MeasurementNoise(sigma=0.03, seed=root)
        got = noise.perturb_cells(cells, count)
        for (true_seconds, key), samples in zip(cells, got):
            seed = _stable_seed(root, *key)
            assert ([x.hex() for x in samples]
                    == oracle_samples(true_seconds, seed, 0.03, count))
            # ...which is the scalar path's stream, draw for draw.
            rng = noise.rng(*key)
            assert samples == [noise.perturb(true_seconds, rng)
                               for _ in range(count)]

    def test_zero_sigma_draws_nothing(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("a stream was set up")

        monkeypatch.setattr(timer, "_stable_seed", forbidden)
        monkeypatch.setattr(timer, "_seed_words", forbidden)
        noise = MeasurementNoise(sigma=0.0, seed=3)
        assert noise.perturb_cells([(1.5e-3, ("a",)), (0.0, ("b",))],
                                   3) == [[1.5e-3] * 3, [0.0] * 3]

    @pytest.mark.parametrize("sigma", (0.0, 0.02))
    def test_negative_duration_raises_before_any_draw(self, monkeypatch,
                                                      sigma):
        def forbidden(*args):
            raise AssertionError("a stream was set up")

        monkeypatch.setattr(timer, "_stable_seed", forbidden)
        monkeypatch.setattr(timer, "_seed_words", forbidden)
        noise = MeasurementNoise(sigma=sigma, seed=3)
        with pytest.raises(PlatformError, match="negative"):
            noise.perturb_cells([(1e-3, ("a",)), (-1e-9, ("b",))], 2)


# ----------------------------------------------------------------------
# Seeded mutants
# ----------------------------------------------------------------------
def plant(monkeypatch, *edits):
    """Swap in a ``_seed_words`` whose source has ``edits`` applied."""
    source = inspect.getsource(timer._seed_words)
    for old, new in edits:
        assert source.count(old) == 1, f"mutant no longer applies: {old!r}"
        source = source.replace(old, new)
    namespace = dict(vars(timer))
    exec(source, namespace)
    monkeypatch.setattr(timer, "_seed_words", namespace["_seed_words"])


#: One fixed hunt per mutant: found or not, never shrunk.
HUNT = settings(max_examples=100, deadline=None, derandomize=True,
                database=None, phases=(Phase.generate,))


hunt = HUNT(given(cells=seeded_cells, count=st.sampled_from(COUNTS),
                  sigma=st.sampled_from(SIGMAS))(check_seeded_draws))


class TestSeededMutants:
    def test_the_hunt_passes_unmutated(self, monkeypatch):
        plant(monkeypatch)  # the harness itself, nothing edited
        hunt()

    def test_high_entropy_word_dropped(self, monkeypatch):
        plant(monkeypatch, (
            "pool[0], pool[1] = seeds & _LOW32, seeds >> _32",
            "pool[0] = seeds & _LOW32"))
        with pytest.raises(AssertionError):
            hunt()

    def test_initstate_and_initseq_swapped(self, monkeypatch):
        # PCG64 seeds its state from words 0-1 and its increment from
        # words 2-3; hand them over the other way round.
        plant(monkeypatch, ("np.ascontiguousarray(words.T)",
                            "np.ascontiguousarray(words[[2, 3, 0, 1]].T)"))
        with pytest.raises(AssertionError):
            hunt()

    def test_one_hash_constant_reused_across_a_round(self, monkeypatch):
        # The schedule does not advance within a round: all three
        # destinations are mixed with the round's first hash.
        plant(monkeypatch, ("_hashmix(pool[src], xor, mul)",
                            "_hashmix(pool[src], xor[0], mul[0])"))
        with pytest.raises(AssertionError):
            hunt()

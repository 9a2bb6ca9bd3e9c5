"""Deterministic measurement noise for the virtual SoC's timers.

The paper measures latency with the ARM generic timer (``cntvct_el0``) on
the host and CUDA events / Vulkan timestamp queries on the device, then
averages 30 repetitions to suppress noise (section 3.2).  Our virtual SoC
reproduces the *statistics* of that process: every measurement of a true
duration is perturbed by multiplicative lognormal noise drawn from a
deterministic, stream-keyed RNG, so experiments are reproducible bit-for-bit
while still exhibiting realistic run-to-run variation.

A keyed stream is ``Generator(PCG64(seed))``; a profile (``perturb_cells``)
and the simulator's jitter columns run the ``SeedSequence`` set-up of all
of their streams in one vectorised pass instead (``lognormal_draws``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from repro.errors import PlatformError

_LOW32, _16, _32 = np.uint64(0xFFFFFFFF), np.uint64(16), np.uint64(32)


def _hashes(start: int, mult: int, n: int) -> Tuple[np.ndarray, ...]:
    """(xor, multiply) columns of ``n`` successive hashes: the constant
    is multiplied by ``mult`` between its two uses, whatever the data."""
    column = np.array([start * pow(mult, i, 2**32) % 2**32
                       for i in range(n + 1)], dtype=np.uint64)[:, None]
    return column[:-1], column[1:]


# numpy/random/bit_generator.pyx, pool size 4: ``mix_entropy`` hashes 4
# words into the pool, then each pool word into the other three, and
# ``generate_state(4, np.uint64)`` hashes the pool, cycled, 8 times.
_MIX_XOR, _MIX_MUL = _hashes(0x43B0D7E5, 0x931E8875, 16)
_ROUNDS = [(src, np.array([dst for dst in range(4) if dst != src]),
            _MIX_XOR[4 + 3 * src:7 + 3 * src],
            _MIX_MUL[4 + 3 * src:7 + 3 * src]) for src in range(4)]
_STATE_XOR, _STATE_MUL = _hashes(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)


def _hashmix(words: np.ndarray, xor: np.ndarray,
             mul: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mul & _LOW32
    return words ^ words >> _16


def _seed_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of every seed
    as one C-contiguous (N, 4) array: all pools mixed in one pass, every
    operand ``np.uint64`` and every word below 2**32."""
    seeds = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint64)
    # A seed below 2**32 is one entropy word; a missing word hashes as 0.
    pool[0], pool[1] = seeds & _LOW32, seeds >> _32
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    for src, dsts, xor, mul in _ROUNDS:
        mixed = (_MIX_L * pool[dsts]
                 - _MIX_R * _hashmix(pool[src], xor, mul)) & _LOW32
        pool[dsts] = mixed ^ mixed >> _16
    halves = _hashmix(np.concatenate((pool, pool)), _STATE_XOR, _STATE_MUL)
    words = halves[0::2] | halves[1::2] << _32
    return np.ascontiguousarray(words.T)


class _SeedWords(ISeedSequence):
    """A seed's precomputed state words, handed to ``PCG64`` as the four
    ``np.uint64`` it asks its seed sequence for: ``PCG64(_SeedWords(row))``
    is ``PCG64(seed)``, its own ``set_seed`` included."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def lognormal_draws(seeds: Sequence[int], sigma: float,
                    count: int) -> np.ndarray:
    """``count`` mean-one lognormal draws from each seed's stream
    ``Generator(PCG64(seed))`` as an (N, count) array, every stream set
    up in one :func:`_seed_words` pass; a draw of ``count=1`` is the
    scalar ``lognormal(mean, sigma)`` of the same stream."""
    return np.array([
        np.random.Generator(np.random.PCG64(_SeedWords(row)))
        .lognormal(-0.5 * sigma**2, sigma, count)
        for row in _seed_words(seeds)
    ])


def _stable_seed(*parts: object) -> int:
    """A 64-bit seed derived deterministically from arbitrary key parts.

    ``hash()`` is randomized per interpreter run, so we use blake2b.
    """
    digest = hashlib.blake2b(
        "\x1f".join(map(str, parts)).encode("utf-8"), digest_size=8
    )
    return int.from_bytes(digest.digest(), "little")


class MeasurementNoise:
    """Keyed multiplicative lognormal noise source.

    Args:
        sigma: Lognormal shape parameter; ~0.02 gives the few-percent
            run-to-run jitter typical of a quiesced Android device.
        seed: Root seed; all streams derive from it.
    """

    def __init__(self, sigma: float = 0.02, seed: int = 0):
        if sigma < 0:
            raise PlatformError("noise sigma must be non-negative")
        self.sigma = sigma
        self.seed = seed

    def rng(self, *key: object) -> np.random.Generator:
        """A fresh deterministic generator for a measurement stream."""
        # What default_rng(seed) builds, minus its argument dispatch.
        seed = _stable_seed(self.seed, *key)
        return np.random.Generator(np.random.PCG64(seed))

    def perturb(self, true_seconds: float, rng: np.random.Generator) -> float:
        """One noisy observation of a true duration."""
        if true_seconds < 0:
            raise PlatformError("durations cannot be negative")
        if self.sigma == 0.0:
            return true_seconds
        # Mean-one lognormal so averaging many reps converges to truth.
        return true_seconds * rng.lognormal(-0.5 * self.sigma**2, self.sigma)

    def perturb_cells(
        self, cells: Sequence[Tuple[float, Tuple[object, ...]]], count: int
    ) -> List[List[float]]:
        """``count`` :meth:`perturb` draws for each ``(true_seconds,
        key)`` cell from its stream ``rng(*key)``, all set up at once."""
        if any(true_seconds < 0 for true_seconds, _ in cells):
            raise PlatformError("durations cannot be negative")
        if self.sigma == 0.0:
            return [[true_seconds] * count for true_seconds, _ in cells]
        draws = lognormal_draws(
            [_stable_seed(self.seed, *key) for _, key in cells],
            self.sigma, count)
        true_seconds = np.array([seconds for seconds, _ in cells])
        return (true_seconds[:, None] * draws).tolist()


def mean_of_measurements(samples: Iterable[float]) -> float:
    """Average repeated measurements (the paper uses 30 reps)."""
    values: List[float] = list(samples)
    if not values:
        raise PlatformError("cannot average zero measurements")
    return sum(values) / len(values)

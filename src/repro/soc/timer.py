"""Deterministic measurement noise for the virtual SoC's timers.

The paper measures latency with the ARM generic timer (``cntvct_el0``) on
the host and CUDA events / Vulkan timestamp queries on the device, then
averages 30 repetitions to suppress noise (section 3.2).  Our virtual SoC
reproduces the *statistics* of that process: every measurement of a true
duration is perturbed by multiplicative lognormal noise drawn from a
deterministic, stream-keyed RNG, so experiments are reproducible bit-for-bit
while still exhibiting realistic run-to-run variation.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List

import numpy as np

from repro.errors import PlatformError


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
        return self.perturb_repeated(true_seconds, rng, 1)[0]

    def perturb_repeated(
        self, true_seconds: float, rng: np.random.Generator, count: int
    ) -> List[float]:
        """What ``count`` successive :meth:`perturb` calls return (and
        leave of the generator), in one vectorised draw."""
        if true_seconds < 0:
            raise PlatformError("durations cannot be negative")
        if self.sigma == 0.0:
            return [true_seconds] * count
        # Mean-one lognormal so averaging many reps converges to truth.
        draws = rng.lognormal(
            mean=-0.5 * self.sigma**2, sigma=self.sigma, size=count
        )
        return (true_seconds * draws).tolist()


def mean_of_measurements(samples: Iterable[float]) -> float:
    """Average repeated measurements (the paper uses 30 reps)."""
    values: List[float] = list(samples)
    if not values:
        raise PlatformError("cannot average zero measurements")
    return sum(values) / len(values)

"""Lint fixture (never imported): the approved idiom for every rule."""

import time

import numpy as np


def deadline_in(seconds):
    return time.monotonic() + seconds


def seeded_draw(seed):
    return np.random.default_rng(seed).random()


def routed(kernel, injector):
    try:
        kernel()
    except Exception:
        injector.record("kernel-fault")
        raise

"""Lint fixture (never imported): a suppressed real finding."""

import time


def stamp():
    return time.time()  # bt-lint: disable=WALL-CLOCK -- a stamp, no deadline

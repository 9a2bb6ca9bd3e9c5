"""Seeded violations in a report's ``to_dict``.

A report's ``to_dict`` is what ``write_json_report`` serializes, so
whatever it returns is report bytes: a wall-clock stamp or an
environment read there changes the bytes from run to run, or from
machine to machine.
"""

import os
import time


class StampedReport:
    def __init__(self, ticks):
        self.ticks = ticks

    def to_dict(self):
        # FLOW-WALL-CLOCK: a wall-clock stamp in the returned payload.
        return {"ticks": self.ticks, "generated_s": time.perf_counter()}


class HostReport:
    def __init__(self, platform):
        self.platform = platform

    def to_dict(self):
        platform = os.environ.get("REPRO_PLATFORM", self.platform)
        # FLOW-ENV-READ: an environment read in the returned payload.
        return {"platform": platform}

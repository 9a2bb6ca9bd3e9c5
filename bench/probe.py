"""The speed probe: how contended was the core while the program ran?

This box's cores come in two speeds.  A vCPU shares its physical core
with a stranger's; while the stranger computes, everything here runs
1.4-2x slower, in stretches from 10 ms to minutes (a fixed loop timed
back to back reads 0.178 ms for a while, then 0.26 ms, then 0.178 ms
again - pure user time, no steal reported).  A wall clock therefore
measures the neighbour as much as the program: the same soak reads
6.2 s in one minute and 12 s in the next.

So the harness samples the core's speed while the program runs.  An
interval timer interrupts the main thread every :data:`PERIOD_S`; the
handler times a fixed piece of work (~0.15 ms) - the *probe*.  A probe
that takes ``f`` times the fastest probes marks its neighbourhood as
running at ``1/f`` speed, and a stretch of program time there counts
as ``elapsed / f`` **calibrated seconds**: the time it would have taken
on the uncontended core.  Probe time itself is excluded.

The probe does what the program does - method calls, attribute reads,
dict lookups and float arithmetic over small objects, ~4 MB of them
(the core's L2) - so that a neighbour who fills the shared cache slows
it about as much as it slows the program.  Recorded side by side over
220 two-second soaks in a contended stretch (raw spread 19 %), a
register-only integer loop left 27 % of the contention uncorrected and
a 5.9 % spread, this probe with 3 000 / 9 000 / 24 000 objects 22 / 5 /
14 % and 5.6 / 3.7 / 4.3 %.  The correction is still first order.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_right
from typing import List

#: Probe cadence.  With a ~0.15 ms probe this costs ~3 % of the wall,
#: none of it counted.
PERIOD_S = 0.005
#: Objects the probe owns, and how many of them one probe visits; a
#: probe starts where the last one stopped, so each finds its objects
#: as cold as the program left them.
PROBE_CELLS = 9000
PROBE_VISITS = 1500


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Cell:
    def __init__(self, index: int) -> None:
        self.weight = float(index)
        self.slots = {"base": index, "step": index + 1}

    def score(self, gain: float) -> float:
        return self.weight * gain + self.slots["base"]


class Prober:
    """Probes the core on a timer from :meth:`start` to :meth:`stop`."""

    def __init__(self, origin: float) -> None:
        #: The time measurement starts at - before this process could
        #: probe; the first probe speaks for the stretch before it.
        self.origin = origin
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._probing = False
        self._cells = [_Cell(index) for index in range(PROBE_CELLS)]
        self._next = 0

    def sample(self, _signum=None, _frame=None) -> None:
        """Run one probe now (also the timer's handler).  Call it at
        both ends of a region so the region is bracketed by probes."""
        if self._probing:
            # The timer fired inside a probe: that probe speaks for now.
            return
        self._probing = True
        first = self._next
        self._next = (first + PROBE_VISITS) % PROBE_CELLS
        total = 0.0
        started = now()
        for cell in self._cells[first:first + PROBE_VISITS]:
            total += cell.score(1.5)
        self.ends.append(now())
        self.starts.append(started)
        self._probing = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def reference(self) -> float:
        """Seconds one probe takes on the uncontended core: the 2nd
        percentile of all probes so far (the fast mode's floor, short
        of the single luckiest sample)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        return statistics.quantiles(durations, n=50)[0]

    def calibration(self, reference: float) -> "Calibration":
        """Freeze the probes taken so far into a clock."""
        return Calibration(self.origin, self.starts, self.ends, reference)


class Calibration:
    """Calibrated time as a function of the monotonic clock: piecewise
    linear, flat across a probe, rising at ``1/f`` between two probes
    whose mean duration is ``f`` x the reference (never faster than
    the wall: ``f`` >= 1)."""

    def __init__(self, origin: float, starts: List[float],
                 ends: List[float], reference: float) -> None:
        durations = [e - s for s, e in zip(starts, ends)]
        self._x: List[float] = [origin, starts[0]]
        self._y: List[float] = [
            0.0, (starts[0] - origin) / max(1.0, durations[0] / reference)]
        for i in range(len(starts) - 1):
            factor = max(
                1.0, (durations[i] + durations[i + 1]) / (2.0 * reference))
            self._x += [ends[i], starts[i + 1]]
            self._y += [self._y[-1], self._y[-1]
                        + (starts[i + 1] - ends[i]) / factor]
        self._x.append(ends[-1])
        self._y.append(self._y[-1])

    def at(self, moment: float) -> float:
        """Calibrated seconds from the origin to ``moment`` (which
        must lie between the origin and the last probe)."""
        x, y = self._x, self._y
        if not x[0] <= moment <= x[-1]:
            raise ValueError("moment outside the probed stretch")
        i = min(bisect_right(x, moment), len(x) - 1)
        span = x[i] - x[i - 1]
        if span <= 0.0:
            return y[i]
        return y[i - 1] + (y[i] - y[i - 1]) * (moment - x[i - 1]) / span

    def between(self, start: float, end: float) -> float:
        """Calibrated seconds of the stretch ``start`` .. ``end``."""
        return self.at(end) - self.at(start)

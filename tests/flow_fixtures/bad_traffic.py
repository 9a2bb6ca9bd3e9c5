"""Seeded traffic-layer violation: an unseeded arrival sampler.

The open-loop contract is that a workload is a pure function of
(spec, seed).  This fixture draws its arrival counts from process
entropy instead of a coordinate-keyed generator, and the draws reach
the serialized ``TrafficReport`` - exactly the regression the flow
check must keep out of ``repro.traffic``.
"""

import numpy as np


def evaluate(ticks):
    # Unseeded generator: every run offers a different workload.
    rng = np.random.default_rng()
    arrivals = [int(rng.poisson(1.5)) for _ in range(ticks)]
    # FLOW-GLOBAL-RNG: OS-entropy arrival counts land in the report.
    return TrafficReport(per_tick={"arrivals": arrivals})

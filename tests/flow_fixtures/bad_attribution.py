"""Seeded attribution violation: wall clock in an alert decision.

Burn-rate alerting must run entirely on the deterministic tick clock -
the :class:`BurnAlert` records ride in serialized reports, so any wall
time reaching an alert decision makes the report nondeterministic.
This fixture measures a "burn rate" from process wall time and hands
it to the alert record - exactly the regression the
``BurnAlert``/``BlameMatrix`` sink registrations must keep out of
``repro.obs.alerts`` and its callers.
"""

import time


def record_alert(key):
    # Wall clock enters the alert decision: every run "burns"
    # differently.
    observed = time.time()
    burn = {"key": key, "rate": observed}
    # FLOW-WALL-CLOCK: wall-clock-derived burn rate in a report sink.
    return BurnAlert(burn)

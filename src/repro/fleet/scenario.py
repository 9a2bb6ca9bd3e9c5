"""The fleet chaos soak's brownout classes.

The presets themselves live beside the runner they feed, in
:mod:`repro.traffic.scenario`; ``bench/`` reads this constant here.
"""

#: PU classes browned out on the fleet soak's degraded shard (all of
#: pixel7a's, so the shard-local rescheduler has nowhere to flee).
DEGRADED_CLASSES = ("big", "medium", "little", "gpu")

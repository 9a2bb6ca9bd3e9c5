"""Shared equipment of the placement-epoch suites (serve, fleet,
traffic): run one scenario as shipped and under the root conftest's
``always_price`` and compare what it leaves behind.

Two things may differ between the arms and are cut out here:
``plan_cache.hits`` in a report (it counts plan look-ups, one per real
pricing) and, in a recorded run's metrics snapshot, that counter plus
the instruments that count the memo itself.
"""

from repro.obs import chrome_trace
from repro.serve.admission import AdmissionController
from repro.serve.placement import EpochMemo


def count_pricings(monkeypatch):
    """Real pricings: calls that reach ``AdmissionController.evaluate``."""
    counter = {"evaluate": 0}
    original = AdmissionController.evaluate

    def evaluate(self, *args, **kwargs):
        counter["evaluate"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AdmissionController, "evaluate", evaluate)
    return counter


def fresh_verdict(server, spec, queued=0):
    """``spec`` priced from nothing: a new controller with the server's
    settings, so no memo of the server's own is read."""
    mine = server.admission
    controller = AdmissionController(
        server.platform, server.plan_cache,
        queue_capacity=mine.queue_capacity,
        max_impact_ratio=mine.max_impact_ratio,
        max_partition_classes=mine.max_partition_classes,
        cumulative_impact=mine.cumulative_impact,
    )
    return controller.evaluate(
        spec, server.placement, server.running_records(), queued=queued)


def without_hits(report_dict):
    """A serve or fleet report's dict minus ``plan_cache.hits``."""
    del report_dict["plan_cache"]["hits"]
    return report_dict


def traced(cap):
    """The exported trace of an ``obs.capture`` minus the instruments
    that count what the memo saves."""
    snapshot = cap.metrics.snapshot()
    for name in ("admission.priced", "admission.remembered",
                 "plan_cache.hits"):
        snapshot["counters"].pop(name, None)
    for name in list(snapshot["gauges"]):
        if name.startswith("serve.placement_epoch"):
            del snapshot["gauges"][name]
    return chrome_trace(cap.events, snapshot)


def first_difference(shipped, oracle):
    """None when two dumps are equal, else where they part ways (a
    pytest diff of two multi-megabyte strings takes minutes)."""
    if shipped == oracle:
        return None
    at = next((index for index, (a, b) in enumerate(zip(shipped, oracle))
               if a != b), min(len(shipped), len(oracle)))
    return (f"at {at}: {shipped[max(0, at - 120):at + 120]!r} != "
            f"{oracle[max(0, at - 120):at + 120]!r}")


class Blurred(EpochMemo):
    """A seeded mutant: a memo keyed on less than its entries depend
    on.  ``blur(stamp, key)`` returns the (stamp, key) the mutant would
    have used."""

    __slots__ = ("blur",)

    def __init__(self, blur):
        super().__init__()
        self.blur = blur

    def lookup(self, stamp, key):
        return super().lookup(*self.blur(stamp, key))

    def store(self, stamp, key, value):
        super().store(*self.blur(stamp, key), value)

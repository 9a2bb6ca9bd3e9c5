"""Suppression grammar fixtures.

A ``bt-lint`` suppression only counts when it carries a
``-- justification``; a bare disable neither silences the finding nor
passes review - it earns a BAD-SUPPRESSION on top.
"""

import time


def record_build_stamp(path):
    payload = {"stamp": time.time()}
    # Justified: suppressed, no finding.
    # bt-lint: disable=FLOW-WALL-CLOCK -- build stamp is intentionally
    write_json_report(path, payload)


def record_naked_stamp(path):
    payload = {"stamp": time.time()}
    # bt-lint: disable=FLOW-WALL-CLOCK
    write_json_report(path, payload)

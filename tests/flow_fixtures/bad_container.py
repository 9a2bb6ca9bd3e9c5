"""Seeded violations that travel through container mutation.

The taint never flows through a return value: the function fills a
container it owns and serializes it, so only a mutation-aware check
catches it.
"""

import threading


def dump_pu_names(pu_classes):
    names = set(pu_classes)
    lines = []
    for name in names:
        # Position in `lines` depends on set iteration order.
        lines.append(name)
    # FLOW-UNORDERED-ITER: unordered iteration order is serialized.
    atomic_write_text("pus.txt", "\n".join(lines))


def save_worker_state(state):
    state["worker"] = threading.get_ident()
    # FLOW-THREAD-ID: thread identity lands in a saved artifact.
    save(state)

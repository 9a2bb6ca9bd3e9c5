"""Thread-affinity maps (paper Fig. 2, input 2).

BetterTogether requires a *target system specification* including an
affinity map of threads to CPU types.  The map records, for each PU class,
which OS core ids belong to it and whether the OS allows pinning threads to
those cores - on the paper's OnePlus 11 only 5 of the 8 cores could be
pinned, which removes the little cluster from the schedulable set and is
one reason the Pixel (fully pinnable) saw larger speedups (section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import PlatformError
from repro.soc.pu import GPU


@dataclass(frozen=True)
class AffinityEntry:
    """Core ids and pinnability for one PU class."""

    core_ids: Tuple[int, ...]
    pinnable: bool = True


class AffinityMap:
    """Maps PU classes to core ids and pinnability.

    The GPU participates as a schedulable class but has no CPU core ids.
    """

    def __init__(self, entries: Mapping[str, AffinityEntry], has_gpu: bool = True):
        self._entries: Dict[str, AffinityEntry] = dict(entries)
        self._has_gpu = has_gpu
        seen: set = set()
        for pu_class, entry in self._entries.items():
            for core in entry.core_ids:
                if core in seen:
                    raise PlatformError(
                        f"core id {core} appears in multiple clusters "
                        f"(second: {pu_class})"
                    )
                seen.add(core)

    def schedulable_classes(self) -> Tuple[str, ...]:
        """PU classes BT-Optimizer may assign stages to.

        Unpinnable clusters are excluded: without affinity control the
        framework cannot guarantee a chunk actually runs there, so the
        profiling table entry would not describe the deployed behaviour.
        """
        classes = [
            pu_class
            for pu_class, entry in self._entries.items()
            if entry.pinnable
        ]
        if self._has_gpu:
            classes.append(GPU)
        return tuple(classes)

"""One SoC shard: a platform, a beat count, and server generations.

A shard is the fleet's failure domain.  Its :class:`PipelineServer` is
stepped by the fleet tick (one caller steps every shard, which is what
keeps cross-shard event order deterministic), and is replaced wholesale
on crash/rejoin: generation ``n+1`` starts with an empty placement and
tenant registry, sharing only the platform, the fleet-owned plan cache
and the fleet's config (the server's knobs) with its predecessor.  A
generation is built ready to step and settled once, by :meth:`close`.
The beat count outlives generations - health is a property of the
shard, not of one server incarnation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.plan_cache import PlanCache
from repro.errors import FleetError
from repro.serve.server import PipelineServer
from repro.soc.platform import Platform

if TYPE_CHECKING:
    from repro.fleet.router import FleetConfig


@dataclass(frozen=True)
class ShardSpec:
    """Declares one shard of the fleet."""

    name: str
    platform_name: str = "pixel7a"
    platform_seed: int = 7

    def __post_init__(self) -> None:
        if not self.name:
            raise FleetError("a shard needs a non-empty name")


class SoCShard:
    """Runtime state of one shard across server generations."""

    def __init__(
        self,
        index: int,
        spec: ShardSpec,
        platform: Platform,
        plan_cache: PlanCache,
        config: "FleetConfig",
    ):
        self.index = index
        self.spec = spec
        self.name = spec.name
        self.platform = platform
        self.plan_cache = plan_cache
        self.config = config
        #: Steps taken outside a gray-failure window; the health
        #: monitor compares it across fleet ticks.
        self.beats = 0
        self.generation = 0
        self.gray = False
        self.server: Optional[PipelineServer] = None
        #: Closed generations, in close order, kept to be read: their
        #: timelines, their records and their last spans.
        self.closed_servers: List[PipelineServer] = []
        self._cursor = 0

    @property
    def alive(self) -> bool:
        return self.server is not None

    def boot(self) -> None:
        """Start a new server generation, ready to step."""
        if self.server is not None:
            raise FleetError(
                f"shard {self.name!r} already has a live generation"
            )
        self.generation += 1
        self.server = PipelineServer(self.platform, self.config,
                                     self.plan_cache, self.name)
        self._cursor = 0

    def close(self, detail: Optional[str] = None) -> None:
        """Close the live generation (crash or fleet drain): its
        tenants still live fail with ``detail``."""
        if self.server is None:
            raise FleetError(f"shard {self.name!r} is not live")
        self.server.close(detail)
        self.closed_servers.append(self.server)
        self.server = None
        self.gray = False

    def step(self, tick: int) -> None:
        """Advance the live generation one tick, counting a beat unless
        the shard is in a gray-failure window."""
        if self.server is None:
            raise FleetError(f"cannot step dead shard {self.name!r}")
        if not self.gray:
            self.beats += 1
        self.server.step(tick)

    def new_events(self) -> List[Dict[str, object]]:
        """Timeline entries appended since the last harvest."""
        if self.server is None:
            return []
        events = self.server.timeline[self._cursor:]
        self._cursor = len(self.server.timeline)
        return events

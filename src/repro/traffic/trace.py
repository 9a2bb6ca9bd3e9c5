"""The frozen-workload trace: record once, replay byte-identically.

A :class:`TrafficTrace` captures a generator run as data - the spec it
was generated from, the seed, and the concrete arrival stream - inside
a schema-versioned, checksummed artifact
(:func:`repro.core.serialization.write_artifact`, kind ``traffic_trace``).
Replaying a trace through the open-loop driver reproduces the recorded
run exactly, so a regression found under generated load can be
debugged against an immutable workload file instead of a spec + seed
pair that a generator change could silently reinterpret.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.core.serialization import (
    PathLike,
    SerializationError,
    read_artifact,
    write_artifact,
)
from repro.errors import TrafficError
from repro.traffic.generator import ArrivalEvent, TrafficGenerator
from repro.traffic.spec import TrafficSpec, int_field

#: Artifact tag for serialized traces.
TRACE_KIND = "traffic_trace"


@dataclass(frozen=True)
class TrafficTrace:
    """One recorded arrival stream, with its provenance."""

    spec: TrafficSpec
    seed: int
    events: Tuple[ArrivalEvent, ...]

    def __post_init__(self) -> None:
        # Rejected here, not at replay: an unknown tier would surface as
        # a KeyError after the whole run, a repeated name as a rejected
        # submission mid-run.
        tiers = {tier.name for tier in self.spec.tiers}
        names = set()
        last_tick = -1
        for event in self.events:
            if event.tier not in tiers:
                raise TrafficError(
                    f"trace event {event.name!r} names tier "
                    f"{event.tier!r}, not one of {sorted(tiers)}"
                )
            if event.name in names:
                raise TrafficError(
                    f"trace event name {event.name!r} appears twice"
                )
            names.add(event.name)
            if event.tick < last_tick:
                raise TrafficError(
                    "trace events must be in non-decreasing tick "
                    f"order ({event.name!r} at tick {event.tick} "
                    f"follows tick {last_tick})"
                )
            if not 0 <= event.tick < self.spec.ticks:
                raise TrafficError(
                    f"trace event {event.name!r} at tick "
                    f"{event.tick} is outside the spec horizon "
                    f"[0, {self.spec.ticks})"
                )
            last_tick = event.tick

    @classmethod
    def record(cls, spec: TrafficSpec, seed: int = 0) -> "TrafficTrace":
        """Run the generator over the spec horizon and freeze the
        resulting stream."""
        generator = TrafficGenerator(spec, seed=seed)
        return cls(spec=spec, seed=seed,
                   events=tuple(generator.events()))

    # ------------------------------------------------------------------
    # Replay surface (the same shape the driver reads generators with)
    # ------------------------------------------------------------------
    def offered_windows(self) -> int:
        """Windows offered by every arrival of the trace."""
        return sum(event.windows for event in self.events)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The trace as a JSON-ready document."""
        return {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    def save(self, path: PathLike) -> None:
        """Persist as a tagged, checksummed artifact (atomic write)."""
        write_artifact(path, TRACE_KIND, self.to_payload())

    @classmethod
    def load(cls, path: PathLike) -> "TrafficTrace":
        """Load and validate a trace artifact (checksum + tag + schema)."""
        data = read_artifact(path, TRACE_KIND)
        try:
            return cls(
                spec=TrafficSpec.from_dict(data["spec"]),
                seed=int_field(data, "seed"),
                events=tuple(
                    ArrivalEvent.from_dict(entry)
                    for entry in data["events"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{path}: malformed traffic trace: {exc}"
            ) from exc

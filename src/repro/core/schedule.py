"""Pipeline schedules: stage-to-PU assignments and their predicted cost.

A :class:`Schedule` is the optimizer's output (paper Fig. 2 step 4): one
PU class per stage, with the contiguity property (constraint C2) that all
stages on a PU form a single chunk.  The class computes everything the
optimizer reasons about: the chunk decomposition, per-chunk predicted
runtimes from a profiling table, the bottleneck latency ``T_max``, and
the *gapness* ``T_max - T_min`` (objective O1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.profiler import ProfilingTable
from repro.errors import ScheduleValidationError, SchedulingError
from repro.stage import Application, Chunk


@dataclass(frozen=True)
class Schedule:
    """An assignment of pipeline stages to PU classes.

    Attributes:
        assignments: ``assignments[i]`` is the PU class of stage ``i``.
    """

    assignments: Tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise SchedulingError("a schedule needs at least one stage")
        if not self.is_contiguous():
            raise SchedulingError(
                f"assignment {self.assignments} violates contiguity (C2): "
                "stages on one PU must form a single chunk"
            )

    @classmethod
    def from_assignments(cls, assignments: Sequence[str]) -> "Schedule":
        return cls(assignments=tuple(assignments))

    @classmethod
    def homogeneous(cls, num_stages: int, pu_class: str) -> "Schedule":
        """All stages on one PU (the paper's CPU-only / GPU-only
        baselines)."""
        if num_stages < 1:
            raise SchedulingError("num_stages must be >= 1")
        return cls(assignments=(pu_class,) * num_stages)

    # ------------------------------------------------------------------
    def is_contiguous(self) -> bool:
        """Each PU class appears as one contiguous run (constraint C2)."""
        seen: List[str] = []
        for pu_class in self.assignments:
            if seen and seen[-1] == pu_class:
                continue
            if pu_class in seen:
                return False
            seen.append(pu_class)
        return True

    @property
    def num_stages(self) -> int:
        return len(self.assignments)

    # A schedule is a frozen value, so what follows from its assignment
    # alone is derived once per instance (``cached_property`` stores in
    # the instance ``__dict__``; equality and hashing stay field-only).
    @cached_property
    def pu_classes_used(self) -> Tuple[str, ...]:
        """Distinct PUs in pipeline order."""
        return tuple(chunk.pu_class for chunk in self._chunks)

    @cached_property
    def class_set(self) -> FrozenSet[str]:
        """The PU classes used, for subset/membership tests (unordered:
        iterate :attr:`pu_classes_used` instead)."""
        return frozenset(self.assignments)

    def chunks(self) -> List[Chunk]:
        """Maximal contiguous runs, in pipeline order (a fresh list per
        call; the chunks themselves are frozen)."""
        return list(self._chunks)

    @cached_property
    def _chunks(self) -> Tuple[Chunk, ...]:
        chunks: List[Chunk] = []
        start = 0
        for index in range(1, self.num_stages + 1):
            boundary = (
                index == self.num_stages
                or self.assignments[index] != self.assignments[start]
            )
            if boundary:
                chunks.append(
                    Chunk(start=start, stop=index,
                          pu_class=self.assignments[start])
                )
                start = index
        return tuple(chunks)

    # ------------------------------------------------------------------
    # Model predictions from a profiling table
    # ------------------------------------------------------------------
    def chunk_times(self, application: Application,
                    table: ProfilingTable) -> Dict[Chunk, float]:
        """Predicted runtime of each chunk: the sum of its stages'
        profiled latencies on the chunk's PU."""
        self._check_application(application)
        times: Dict[Chunk, float] = {}
        for chunk in self._chunks:
            times[chunk] = sum(
                table.latency(application.stages[i].name, chunk.pu_class)
                for i in chunk.stage_indices
            )
        return times

    def predicted_latency(self, application: Application,
                          table: ProfilingTable) -> float:
        """``T_max``: the bottleneck chunk's runtime - the pipeline's
        steady-state per-task latency under the model."""
        return max(self.chunk_times(application, table).values())

    def gapness(self, application: Application,
                table: ProfilingTable) -> float:
        """``T_max - T_min`` (objective O1): low gapness means every PU in
        the pipeline stays busy, i.e. high utilization."""
        times = self.chunk_times(application, table).values()
        return max(times) - min(times)

    def predicted_serial_latency(self, application: Application,
                                 table: ProfilingTable) -> float:
        """Sum of all stage latencies - the unpipelined execution time."""
        self._check_application(application)
        return sum(
            table.latency(stage.name, pu_class)
            for stage, pu_class in zip(application.stages, self.assignments)
        )

    def _check_application(self, application: Application) -> None:
        if application.num_stages != self.num_stages:
            raise SchedulingError(
                f"schedule has {self.num_stages} stages, application "
                f"{application.name!r} has {application.num_stages}"
            )

    # ------------------------------------------------------------------
    def describe(self, application: Application = None) -> str:
        """Compact rendering like ``[morton..sort]@big | [unique]@gpu``."""
        parts = []
        for chunk in self._chunks:
            if application is not None:
                names = [
                    application.stages[i].name for i in chunk.stage_indices
                ]
                label = (
                    names[0] if len(names) == 1
                    else f"{names[0]}..{names[-1]}"
                )
            else:
                label = (
                    str(chunk.start) if len(chunk) == 1
                    else f"{chunk.start}-{chunk.stop - 1}"
                )
            parts.append(f"[{label}]@{chunk.pu_class}")
        return " | ".join(parts)

    def __str__(self) -> str:
        return "-".join(self.assignments)


def validate_schedule(
    schedule: Union["Schedule", Sequence[str]],
    application: Optional[Application] = None,
    table: Optional[ProfilingTable] = None,
    available_pus: Optional[Iterable[str]] = None,
    max_chunk_time_s: Optional[float] = None,
    min_chunk_time_s: Optional[float] = None,
) -> "Schedule":
    """Check a schedule against the model constraints before deployment.

    Accepts either a :class:`Schedule` or a raw assignment sequence (so
    hand-crafted or deserialized assignments can be vetted *before* the
    ``Schedule`` constructor is trusted with them).  Each violated rule
    raises a distinct :class:`~repro.errors.ScheduleValidationError`
    whose ``constraint`` attribute names it:

    * ``C1`` - every stage carries exactly one PU class (non-empty
      assignment, one entry per application stage);
    * ``C2`` - stages on one PU form a single contiguous chunk;
    * ``C3a`` / ``C3b`` - per-chunk predicted runtime within the upper /
      lower bound (requires ``application`` and ``table``);
    * ``availability`` - only PUs from ``available_pus`` are used.

    Returns:
        The validated :class:`Schedule` (constructed when raw
        assignments were passed).
    """
    assignments = tuple(
        schedule.assignments if isinstance(schedule, Schedule)
        else schedule
    )
    # C1: exactly one PU class per stage.
    if not assignments:
        raise ScheduleValidationError(
            "C1", "schedule assigns no stages"
        )
    for index, pu_class in enumerate(assignments):
        if not isinstance(pu_class, str) or not pu_class:
            raise ScheduleValidationError(
                "C1",
                f"stage {index} has no PU class (got {pu_class!r})"
            )
    if (
        application is not None
        and len(assignments) != application.num_stages
    ):
        raise ScheduleValidationError(
            "C1",
            f"schedule assigns {len(assignments)} stages, application "
            f"{application.name!r} has {application.num_stages}"
        )
    # C2: contiguity.
    seen: List[str] = []
    for pu_class in assignments:
        if seen and seen[-1] == pu_class:
            continue
        if pu_class in seen:
            raise ScheduleValidationError(
                "C2",
                f"PU class {pu_class!r} appears in two separate chunks "
                f"in {assignments}"
            )
        seen.append(pu_class)
    # PU availability (dead PUs, unpinnable clusters, foreign platforms).
    if available_pus is not None:
        unavailable = sorted(set(assignments) - set(available_pus))
        if unavailable:
            raise ScheduleValidationError(
                "availability",
                f"schedule uses unavailable PU classes {unavailable}"
            )
    validated = (
        schedule if isinstance(schedule, Schedule)
        else Schedule.from_assignments(assignments)
    )
    # C3a / C3b: per-chunk runtime bounds, from the profiling table.
    if (max_chunk_time_s is not None or min_chunk_time_s is not None):
        if application is None or table is None:
            raise SchedulingError(
                "per-chunk bound checks (C3) need an application and a "
                "profiling table"
            )
        times = validated.chunk_times(application, table)
        for chunk, runtime in times.items():
            if (
                max_chunk_time_s is not None
                and runtime > max_chunk_time_s + 1e-12
            ):
                raise ScheduleValidationError(
                    "C3a",
                    f"chunk {chunk.pu_class!r} (stages "
                    f"{chunk.start}-{chunk.stop - 1}) runs "
                    f"{runtime:.6f}s > max {max_chunk_time_s:.6f}s"
                )
            if (
                min_chunk_time_s is not None
                and runtime < min_chunk_time_s - 1e-12
            ):
                raise ScheduleValidationError(
                    "C3b",
                    f"chunk {chunk.pu_class!r} (stages "
                    f"{chunk.start}-{chunk.stop - 1}) runs "
                    f"{runtime:.6f}s < min {min_chunk_time_s:.6f}s"
                )
    return validated


"""Core BetterTogether abstractions (paper section 3.1).

* A :class:`Stage` is a unit of computation with a well-defined input and
  output, implemented by one compute kernel per backend and characterized
  by a :class:`~repro.soc.workprofile.WorkProfile`.
* A :class:`Chunk` is one or more *contiguous* stages - the basic unit of
  scheduling (one dispatcher thread per chunk at run time).
* An :class:`Application` is a sequence of stages where each stage's
  output feeds the next.
* A :class:`TaskGraph` expresses richer acyclic dependencies (e.g. the
  Octree pipeline's final stage consumes stages 3, 4 and 6); it linearizes
  to a stage sequence by topological sort, as the paper prescribes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.kernels.base import BACKENDS, CPU, GPU
from repro.soc.workprofile import WorkProfile

#: A compute kernel: mutates the task's buffers in place.
KernelFn = Callable[[Any], None]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage.

    Attributes:
        name: Unique within the application.
        work: Work characterization consumed by the virtual SoC.
        kernels: Backend name -> kernel function.  Both ``cpu`` and ``gpu``
            must be present (the paper requires host- and device-side
            implementations as input, Fig. 2 step 1); purely structural
            studies may pass ``None`` placeholders via
            :meth:`Stage.model_only`.
    """

    name: str
    work: WorkProfile
    kernels: Mapping[str, Optional[KernelFn]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise SchedulingError("stages need a non-empty name")
        unknown = set(self.kernels) - set(BACKENDS)
        if unknown:
            raise SchedulingError(
                f"stage {self.name!r}: unknown backends {sorted(unknown)}"
            )

    @classmethod
    def model_only(cls, name: str, work: WorkProfile) -> "Stage":
        """A stage with no executable kernels (profiling/scheduling only)."""
        return cls(name=name, work=work, kernels={CPU: None, GPU: None})

    def kernel(self, backend: str) -> KernelFn:
        """The kernel for a backend; raises if missing."""
        if backend not in BACKENDS:
            raise SchedulingError(f"unknown backend {backend!r}")
        fn = self.kernels.get(backend)
        if fn is None:
            raise SchedulingError(
                f"stage {self.name!r} has no executable {backend} kernel"
            )
        return fn

    def kernel_for_pu(self, pu_class: str) -> KernelFn:
        """Pick the kernel variant a PU class executes (GPU gets the
        device kernel, every CPU cluster the host kernel)."""
        return self.kernel(GPU if pu_class == GPU else CPU)


@dataclass(frozen=True)
class Chunk:
    """A maximal run of contiguous stages mapped to one PU class."""

    start: int
    stop: int
    pu_class: str

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.stop:
            raise SchedulingError(
                f"bad chunk bounds [{self.start}, {self.stop})"
            )

    @property
    def stage_indices(self) -> range:
        return range(self.start, self.stop)

    def __len__(self) -> int:
        return self.stop - self.start


class Application:
    """A streaming application: an ordered sequence of stages.

    Args:
        name: Application identifier (e.g. ``alexnet-dense``).
        stages: The linear stage pipeline.
        make_task: Optional factory producing a fresh task (a mutable
            mapping of named numpy buffers) for functional execution; the
            integer argument seeds the input generator.
        validate_task: Optional callable checking a completed task,
            raising on corruption - used by correctness tests and the
            threaded runtime.
        description: Human-readable summary (Table 1 contents).
    """

    def __init__(
        self,
        name: str,
        stages: Sequence[Stage],
        make_task: Optional[Callable[[int], Dict[str, Any]]] = None,
        validate_task: Optional[Callable[[Dict[str, Any]], None]] = None,
        description: str = "",
        input_kind: str = "",
    ):
        if not stages:
            raise SchedulingError("an application needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate stage names in {name!r}")
        self.name = name
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self.make_task = make_task
        self.validate_task = validate_task
        self.description = description
        self.input_kind = input_kind

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def stage(self, name: str) -> Stage:
        """Look up a stage by name."""
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise SchedulingError(f"{self.name!r} has no stage {name!r}")

    def stage_index(self, name: str) -> int:
        """Pipeline position of the named stage."""
        for index, stage in enumerate(self.stages):
            if stage.name == name:
                return index
        raise SchedulingError(f"{self.name!r} has no stage {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Application({self.name!r}, {self.num_stages} stages: "
            f"{', '.join(self.stage_names)})"
        )


class TaskGraph:
    """An acyclic stage-dependency graph (paper section 3.1, Task Graph).

    BetterTogether's core model is a linear sequence; richer dependency
    structures are supported by topologically sorting the graph and
    running the result as a linear pipeline.  The sort is deterministic:
    among ready nodes, insertion order wins (Kahn's algorithm with a FIFO
    frontier), so repeated builds produce identical pipelines.
    """

    def __init__(self) -> None:
        self._stages: Dict[str, Stage] = {}
        self._deps: Dict[str, List[str]] = {}
        self._order: List[str] = []

    def add_stage(self, stage: Stage, deps: Sequence[str] = ()) -> None:
        """Add a stage whose inputs come from the named dependencies."""
        if stage.name in self._stages:
            raise SchedulingError(f"duplicate stage {stage.name!r}")
        for dep in deps:
            if dep not in self._stages:
                raise SchedulingError(
                    f"stage {stage.name!r} depends on unknown {dep!r}"
                )
        self._stages[stage.name] = stage
        self._deps[stage.name] = list(deps)
        self._order.append(stage.name)

    @property
    def num_stages(self) -> int:
        return len(self._stages)

    def linearize(self) -> List[Stage]:
        """Deterministic topological order of the stages."""
        indegree = {name: len(deps) for name, deps in self._deps.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self._stages}
        for name, deps in self._deps.items():
            for dep in deps:
                dependents[dep].append(name)
        ready = deque(
            name for name in self._order if indegree[name] == 0
        )
        result: List[Stage] = []
        while ready:
            name = ready.popleft()
            result.append(self._stages[name])
            for dependent in dependents[name]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
        if len(result) != len(self._stages):
            remaining = sorted(
                name for name, deg in indegree.items() if deg > 0
            )
            raise SchedulingError(f"dependency cycle among {remaining}")
        return result

    def to_application(self, name: str, **kwargs: Any) -> Application:
        """Linearize and wrap as an :class:`Application`."""
        return Application(name=name, stages=self.linearize(), **kwargs)

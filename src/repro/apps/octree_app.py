"""The Octree application (paper section 4.1): seven stages following
Karras' construction, mixed regular and irregular computation.

Stage list (and the dependency structure from the paper):

1. Morton Encoding   - regular DOALL map
2. Sort              - radix sort of the codes
3. Duplicate Removal - stream compaction
4. Build Radix Tree  - Karras binary radix tree (depends on 3)
5. Edge Counting     - octree cells per tree node (depends on 4)
6. Prefix Sum        - allocation offsets (depends on 5)
7. Build Octree      - materialize + link cells (depends on 3, 4 and 6)

The non-linear tail (stage 7 reads stages 3, 4 and 6) is expressed as a
:class:`~repro.stage.TaskGraph` and linearized by topological sort,
exactly as section 3.1 prescribes.

Buffer layout: all arrays are pre-allocated for ``n_points`` (the paper
pre-allocates scratchpads); the data-dependent unique-code count flows
through the one-element ``unique_count`` buffer and downstream stages
slice their views accordingly.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.apps.datasets import point_cloud
from repro.errors import KernelError
from repro.kernels import (
    Octree,
    RadixTree,
    build_octree_cpu,
    build_octree_gpu,
    build_radix_tree_cpu,
    build_radix_tree_gpu,
    count_edges_cpu,
    count_edges_gpu,
    edge_count_work_profile,
    exclusive_scan_cpu,
    exclusive_scan_gpu,
    morton_encode_cpu,
    morton_encode_gpu,
    morton_work_profile,
    octree_build_work_profile,
    radix_tree_work_profile,
    scan_work_profile,
    sort_codes_cpu,
    sort_codes_gpu,
    sort_work_profile,
    unique_cpu,
    unique_gpu,
    unique_work_profile,
)
from repro.kernels.base import CPU, GPU
from repro.stage import Application, Stage, TaskGraph

#: Default point-cloud size (a modest indoor LiDAR sweep).
DEFAULT_N_POINTS = 100_000
#: Worst-case octree cells per leaf path (10 Morton levels + root).
MAX_CELLS_PER_LEAF = 11


def _unique_count(task) -> int:
    count = int(np.asarray(task["unique_count"])[0])
    if count < 1:
        raise KernelError("pipeline ran octree stages before unique")
    return count


def _tree_view(task, m: int) -> RadixTree:
    """Zero-copy RadixTree over the task's pre-allocated arrays."""
    internal = max(m - 1, 0)
    return RadixTree(
        left=task["rt_left"][:internal],
        right=task["rt_right"][:internal],
        left_is_leaf=task["rt_left_is_leaf"][:internal],
        right_is_leaf=task["rt_right_is_leaf"][:internal],
        parent=task["rt_parent"][:internal],
        leaf_parent=task["rt_leaf_parent"][:m],
        delta_node=task["rt_delta"][:internal],
        range_left=task["rt_range_left"][:internal],
        range_right=task["rt_range_right"][:internal],
    )


def _octree_view(task) -> Octree:
    return Octree(
        level=task["oc_level"],
        code=task["oc_code"],
        parent=task["oc_parent"],
        children=task["oc_children"],
        num_cells=0,
    )


def _stage_morton(backend_fn):
    def kernel(task):
        backend_fn(task["points"], task["codes"])
    return kernel


def _stage_sort(backend_fn):
    def kernel(task):
        backend_fn(task["codes"], task["sorted_codes"])
    return kernel


def _stage_unique(backend_fn):
    def kernel(task):
        backend_fn(task["sorted_codes"], task["unique_codes"],
                   task["unique_count"])
    return kernel


def _stage_tree(backend_fn):
    def kernel(task):
        m = _unique_count(task)
        backend_fn(task["unique_codes"][:m], _tree_view(task, m))
    return kernel


def _stage_edges(backend_fn):
    def kernel(task):
        m = _unique_count(task)
        backend_fn(_tree_view(task, m), task["edge_counts"][: m - 1])
    return kernel


def _stage_scan(backend_fn):
    def kernel(task):
        m = _unique_count(task)
        backend_fn(task["edge_counts"][: m - 1], task["offsets"][: m - 1])
    return kernel


def _stage_build(backend_fn):
    def kernel(task):
        m = _unique_count(task)
        octree = _octree_view(task)
        backend_fn(
            _tree_view(task, m),
            task["unique_codes"][:m],
            task["edge_counts"][: m - 1],
            task["offsets"][: m - 1],
            octree,
        )
        task["oc_num_cells"][0] = octree.num_cells
    return kernel


def _make_task_factory(n_points: int):
    internal = max(n_points - 1, 1)
    max_cells = MAX_CELLS_PER_LEAF * n_points

    def make_task(seed: int) -> Dict[str, np.ndarray]:
        return {
            "points": point_cloud(seed, n_points),
            "codes": np.zeros(n_points, dtype=np.uint32),
            "sorted_codes": np.zeros(n_points, dtype=np.uint32),
            "unique_codes": np.zeros(n_points, dtype=np.uint32),
            "unique_count": np.zeros(1, dtype=np.int64),
            "rt_left": np.full(internal, -1, dtype=np.int64),
            "rt_right": np.full(internal, -1, dtype=np.int64),
            "rt_left_is_leaf": np.zeros(internal, dtype=bool),
            "rt_right_is_leaf": np.zeros(internal, dtype=bool),
            "rt_parent": np.full(internal, -1, dtype=np.int64),
            "rt_leaf_parent": np.full(n_points, -1, dtype=np.int64),
            "rt_delta": np.zeros(internal, dtype=np.int64),
            "rt_range_left": np.zeros(internal, dtype=np.int64),
            "rt_range_right": np.zeros(internal, dtype=np.int64),
            "edge_counts": np.zeros(internal, dtype=np.int64),
            "offsets": np.zeros(internal, dtype=np.int64),
            "oc_level": np.zeros(max_cells, dtype=np.int64),
            "oc_code": np.zeros(max_cells, dtype=np.uint32),
            "oc_parent": np.full(max_cells, -1, dtype=np.int64),
            "oc_children": np.full((max_cells, 8), -1, dtype=np.int64),
            "oc_num_cells": np.zeros(1, dtype=np.int64),
        }

    return make_task


def validate_octree_task(task) -> None:
    """Structural invariants of a completed octree (test + runtime check)."""
    num_cells = int(np.asarray(task["oc_num_cells"])[0])
    if num_cells < 1:
        raise ValueError("octree has no cells")
    level = np.asarray(task["oc_level"])[:num_cells]
    parent = np.asarray(task["oc_parent"])[:num_cells]
    roots = np.nonzero(parent < 0)[0]
    if len(roots) != 1:
        raise ValueError(f"expected one root, found {len(roots)}")
    if level[roots[0]] != 0:
        raise ValueError("root is not at level 0")
    child_levels = level[parent >= 0]
    parent_levels = level[parent[parent >= 0]]
    if not np.all(child_levels == parent_levels + 1):
        raise ValueError("parent/child levels inconsistent")


def build_octree_application(n_points: int = DEFAULT_N_POINTS) -> Application:
    """Construct the 7-stage Octree application for ``n_points`` inputs."""
    if n_points < 2:
        raise KernelError("octree application needs at least 2 points")
    n = n_points
    graph = TaskGraph()
    graph.add_stage(
        Stage("morton", morton_work_profile(n),
              {CPU: _stage_morton(morton_encode_cpu),
               GPU: _stage_morton(morton_encode_gpu)}),
        deps=(),
    )
    graph.add_stage(
        Stage("sort", sort_work_profile(n),
              {CPU: _stage_sort(sort_codes_cpu),
               GPU: _stage_sort(sort_codes_gpu)}),
        deps=("morton",),
    )
    graph.add_stage(
        Stage("unique", unique_work_profile(n),
              {CPU: _stage_unique(unique_cpu),
               GPU: _stage_unique(unique_gpu)}),
        deps=("sort",),
    )
    graph.add_stage(
        Stage("radix-tree", radix_tree_work_profile(n),
              {CPU: _stage_tree(build_radix_tree_cpu),
               GPU: _stage_tree(build_radix_tree_gpu)}),
        deps=("unique",),
    )
    graph.add_stage(
        Stage("edge-count", edge_count_work_profile(n),
              {CPU: _stage_edges(count_edges_cpu),
               GPU: _stage_edges(count_edges_gpu)}),
        deps=("radix-tree",),
    )
    graph.add_stage(
        Stage("prefix-sum", scan_work_profile(n),
              {CPU: _stage_scan(exclusive_scan_cpu),
               GPU: _stage_scan(exclusive_scan_gpu)}),
        deps=("edge-count",),
    )
    # The paper calls out this stage's multi-way dependency (3, 4, 6).
    graph.add_stage(
        Stage("build-octree", octree_build_work_profile(n),
              {CPU: _stage_build(build_octree_cpu),
               GPU: _stage_build(build_octree_gpu)}),
        deps=("unique", "radix-tree", "prefix-sum"),
    )
    return graph.to_application(
        name="octree",
        make_task=_make_task_factory(n_points),
        validate_task=validate_octree_task,
        description="3D octree construction from point clouds (mixed "
                    "sparse & dense)",
        input_kind="PC",
    )

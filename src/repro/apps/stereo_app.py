"""The Stereo-depth application (extension workload).

Six stages: rectify, census, cost volume, aggregate, WTA, median - the
kind of edge perception pipeline the paper's introduction motivates.
Inputs are synthetic stereo pairs with *known* ground-truth disparity
(the right image is the left shifted by a plane-plus-steps disparity
field), which gives the functional validator something real to check:
the recovered disparity must match the ground truth over most of the
frame.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import KernelError
from repro.kernels.base import CPU, GPU
from repro.kernels.stereo import (
    aggregate_cpu,
    aggregate_gpu,
    aggregate_work_profile,
    census_cpu,
    census_gpu,
    census_work_profile,
    cost_volume_cpu,
    cost_volume_gpu,
    cost_volume_work_profile,
    median3x3_cpu,
    median3x3_gpu,
    median_work_profile,
    rectify_cpu,
    rectify_gpu,
    rectify_work_profile,
    wta_cpu,
    wta_gpu,
    wta_work_profile,
)
from repro.stage import Application, Stage

#: Default frame geometry (a QVGA-ish stereo head).
DEFAULT_H, DEFAULT_W = 120, 160
#: Disparity search range of the application's matcher.
MAX_DISPARITY = 32


def synthetic_stereo_pair(seed: int, h: int, w: int,
                          max_disparity: int):
    """A textured left image, a disparity plane with a step, and the
    corresponding right image (left warped by the disparity)."""
    rng = np.random.default_rng(300_000 + seed)
    # Rich texture so census matching is well-posed.
    texture = rng.random((h, w + max_disparity)).astype(np.float32)
    for _ in range(2):  # cheap smoothing for spatial correlation
        texture[:, 1:] = 0.6 * texture[:, 1:] + 0.4 * texture[:, :-1]
        texture[1:, :] = 0.6 * texture[1:, :] + 0.4 * texture[:-1, :]
    texture += 0.08 * rng.random((h, w + max_disparity)).astype(np.float32)

    # Ground truth: a fronto-parallel background plus a nearer box.
    truth = np.full((h, w), max_disparity // 4, dtype=np.int32)
    truth[h // 4 : 3 * h // 4, w // 4 : 3 * w // 4] = max_disparity // 2

    # Sample both views from the shared texture so that a left pixel at
    # column c matches the right pixel at column c - truth[r, c]:
    #   left[r, c]  = T[r, M + c]
    #   right[r, x] = T[r, M + x + d(x)]  with d taken from the (mostly
    # piecewise-constant) truth field - exact except within a few
    # columns of the box boundary, which the validator tolerates.
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    left = texture[:, max_disparity : max_disparity + w].copy()
    right_source = np.clip(
        max_disparity + cols + truth, 0, texture.shape[1] - 1
    )
    right = texture[rows, right_source].astype(np.float32)
    return left, right, truth


def build_stereo_application(
    h: int = DEFAULT_H,
    w: int = DEFAULT_W,
) -> Application:
    """Construct the 6-stage stereo-depth application."""
    if h < 16 or w <= MAX_DISPARITY:
        raise KernelError("frame too small for the disparity range")

    stages = [
        Stage("rectify", rectify_work_profile(h, w), {
            CPU: lambda t: rectify_cpu(
                t["left"], t["right"], t["left_rect"], t["right_rect"],
                shear=0.0),
            GPU: lambda t: rectify_gpu(
                t["left"], t["right"], t["left_rect"], t["right_rect"],
                shear=0.0),
        }),
        Stage("census", census_work_profile(h, w), {
            CPU: lambda t: census_cpu(
                t["left_rect"], t["right_rect"],
                t["left_census"], t["right_census"]),
            GPU: lambda t: census_gpu(
                t["left_rect"], t["right_rect"],
                t["left_census"], t["right_census"]),
        }),
        Stage("cost-volume", cost_volume_work_profile(h, w, MAX_DISPARITY), {
            CPU: lambda t: cost_volume_cpu(
                t["left_census"], t["right_census"], t["cost"],
                MAX_DISPARITY),
            GPU: lambda t: cost_volume_gpu(
                t["left_census"], t["right_census"], t["cost"],
                MAX_DISPARITY),
        }),
        Stage("aggregate", aggregate_work_profile(h, w, MAX_DISPARITY), {
            CPU: lambda t: aggregate_cpu(t["cost"], t["aggregated"]),
            GPU: lambda t: aggregate_gpu(t["cost"], t["aggregated"]),
        }),
        Stage("wta", wta_work_profile(h, w, MAX_DISPARITY), {
            CPU: lambda t: wta_cpu(t["aggregated"], t["disparity"]),
            GPU: lambda t: wta_gpu(t["aggregated"], t["disparity"]),
        }),
        Stage("median", median_work_profile(h, w), {
            CPU: lambda t: median3x3_cpu(t["disparity"], t["cleaned"]),
            GPU: lambda t: median3x3_gpu(t["disparity"], t["cleaned"]),
        }),
    ]

    def make_task(seed: int) -> Dict[str, np.ndarray]:
        left, right, truth = synthetic_stereo_pair(seed, h, w,
                                                   MAX_DISPARITY)
        return {
            "left": left,
            "right": right,
            "truth": truth,
            "left_rect": np.zeros((h, w), dtype=np.float32),
            "right_rect": np.zeros((h, w), dtype=np.float32),
            "left_census": np.zeros((h, w), dtype=np.uint32),
            "right_census": np.zeros((h, w), dtype=np.uint32),
            "cost": np.zeros((MAX_DISPARITY, h, w), dtype=np.uint8),
            "aggregated": np.zeros((MAX_DISPARITY, h, w),
                                   dtype=np.float32),
            "disparity": np.zeros((h, w), dtype=np.int32),
            "cleaned": np.zeros((h, w), dtype=np.int32),
        }

    def validate_task(task) -> None:
        cleaned = np.asarray(task["cleaned"])
        truth = np.asarray(task["truth"])
        # Ignore the left occlusion band (no match exists there).
        valid = np.zeros_like(truth, dtype=bool)
        valid[:, MAX_DISPARITY:] = True
        close = np.abs(cleaned - truth) <= 1
        accuracy = float(close[valid].mean())
        if accuracy < 0.8:
            raise ValueError(
                f"stereo accuracy {accuracy:.2f} below 0.8 - pipeline "
                "corrupted"
            )

    return Application(
        name="stereo-depth",
        stages=stages,
        make_task=make_task,
        validate_task=validate_task,
        description="Census-based local stereo matching (dense compute "
                    "+ bandwidth-heavy aggregation)",
        input_kind="Stereo pair",
    )

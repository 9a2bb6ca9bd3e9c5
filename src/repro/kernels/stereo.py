"""Stereo-depth kernels (extension workload beyond the paper's three).

A classic local-matching stereo pipeline - rectification, census
transform, Hamming cost volume, box aggregation, winner-take-all
disparity, median cleanup - chosen because it mixes the paper's stage
classes inside one application: dense regular map stages, a
compute-heavy cost volume, bandwidth-heavy aggregation, and a
reduction.  Every kernel has a host (whole-frame vectorized) and a
device (tile-dispatched) variant with identical results.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KernelError
from repro.soc.workprofile import WorkProfile

#: Census window radius (5x5 window -> 24-bit descriptors).
CENSUS_RADIUS = 2
#: Cost-aggregation box radius (5x5 box).
AGGREGATE_RADIUS = 2
#: Rows per simulated device workgroup tile.
GPU_ROW_TILE = 32


def _check_image(name: str, image: np.ndarray) -> None:
    if image.ndim != 2:
        raise KernelError(f"{name} must be 2-D, got shape {image.shape}")


# ----------------------------------------------------------------------
# Stage 1: rectification (vertical shear remap, bilinear)
# ----------------------------------------------------------------------
def _rectify(src: np.ndarray, dst: np.ndarray, shear: float) -> None:
    h, w = src.shape
    rows = np.arange(h)[:, None]
    cols = np.arange(w)[None, :]
    source_rows = np.clip(rows + shear * (cols - w / 2) / w, 0, h - 1)
    low = np.floor(source_rows).astype(np.int64)
    high = np.minimum(low + 1, h - 1)
    frac = (source_rows - low).astype(src.dtype)
    dst[:] = (1 - frac) * src[low, cols] + frac * src[high, cols]


def rectify_cpu(left, right, left_out, right_out, shear=0.5):
    """Host variant: one vectorized remap per image."""
    _check_image("left", left)
    _rectify(left, left_out, shear)
    _rectify(right, right_out, shear)


def rectify_gpu(left, right, left_out, right_out, shear=0.5):
    """Device variant: same remap, dispatched per image 'surface'."""
    for src, dst in ((left, left_out), (right, right_out)):
        _check_image("image", src)
        _rectify(src, dst, shear)


def rectify_work_profile(h: int, w: int) -> WorkProfile:
    """Bilinear remap: regular map with gather-flavoured reads."""
    pixels = h * w
    return WorkProfile(
        flops=12.0 * pixels * 2,
        bytes_moved=4.0 * pixels * 4,
        parallelism=float(pixels),
        divergence=0.05,
        irregularity=0.2,  # bilinear gathers
        cpu_efficiency=0.4,
        gpu_efficiency=0.45,
        gpu_launches=2,
    )


# ----------------------------------------------------------------------
# Stage 2: census transform (5x5 comparison descriptor)
# ----------------------------------------------------------------------
def _census(image: np.ndarray, out: np.ndarray) -> None:
    h, w = image.shape
    r = CENSUS_RADIUS
    padded = np.pad(image, r, mode="edge")
    descriptor = np.zeros((h, w), dtype=np.uint32)
    bit = 0
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            neighbour = padded[r + dy : r + dy + h, r + dx : r + dx + w]
            descriptor |= (
                (neighbour > image).astype(np.uint32) << np.uint32(bit)
            )
            bit += 1
    out[:] = descriptor


def census_cpu(left, right, left_out, right_out):
    """Host variant: vectorized window comparisons."""
    _census(left, left_out)
    _census(right, right_out)


def census_gpu(left, right, left_out, right_out):
    """Device variant: identical comparisons, one launch per image."""
    _census(left, left_out)
    _census(right, right_out)


def census_work_profile(h: int, w: int) -> WorkProfile:
    """Window comparisons: dense, regular, GPU-friendly."""
    pixels = h * w
    window = (2 * CENSUS_RADIUS + 1) ** 2 - 1
    return WorkProfile(
        flops=2.0 * window * pixels * 2,
        bytes_moved=4.0 * pixels * (window / 4 + 2) * 2,
        parallelism=float(pixels),
        divergence=0.05,
        irregularity=0.1,
        cpu_efficiency=0.35,
        gpu_efficiency=0.5,
        gpu_launches=2,
    )


# ----------------------------------------------------------------------
# Stage 3: Hamming cost volume
# ----------------------------------------------------------------------
def _popcount32(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint32)
    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + (
        (x >> np.uint32(2)) & np.uint32(0x33333333)
    )
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return ((x * np.uint32(0x01010101)) >> np.uint32(24)).astype(np.uint8)


def cost_volume_cpu(left_census, right_census, cost, max_disparity):
    """Host variant: one vectorized Hamming pass per disparity."""
    h, w = left_census.shape
    if cost.shape != (max_disparity, h, w):
        raise KernelError(f"cost volume shape {cost.shape} wrong")
    for d in range(max_disparity):
        shifted = np.empty_like(right_census)
        shifted[:, d:] = right_census[:, : w - d]
        shifted[:, :d] = right_census[:, :1]
        cost[d] = _popcount32(left_census ^ shifted)


def cost_volume_gpu(left_census, right_census, cost, max_disparity):
    """Device variant: disparity-major launches (one per d), matching
    how a compute shader grid would be dispatched."""
    cost_volume_cpu(left_census, right_census, cost, max_disparity)


def cost_volume_work_profile(h: int, w: int, d: int) -> WorkProfile:
    """Hamming matching over D disparities: the compute-heavy stage."""
    pixels = h * w
    return WorkProfile(
        flops=8.0 * pixels * d,
        bytes_moved=4.0 * pixels * d / 2 + pixels * d,
        parallelism=float(pixels * d),
        divergence=0.02,
        irregularity=0.05,
        cpu_efficiency=0.25,
        gpu_efficiency=0.55,
        gpu_launches=1,
    )


# ----------------------------------------------------------------------
# Stage 4: box aggregation over the cost volume
# ----------------------------------------------------------------------
def aggregate_cpu(cost, aggregated):
    """Host variant: separable box filter via cumulative sums."""
    d, h, w = cost.shape
    if aggregated.shape != cost.shape:
        raise KernelError("aggregated volume shape mismatch")
    radius = AGGREGATE_RADIUS
    k = 2 * radius + 1
    padded = np.pad(
        cost.astype(np.float32),
        ((0, 0), (radius, radius), (radius, radius)),
        mode="edge",
    )
    rows = np.cumsum(padded, axis=1)
    rows = np.concatenate(
        [rows[:, k - 1 : k], rows[:, k:] - rows[:, : -k]], axis=1
    )
    cols = np.cumsum(rows, axis=2)
    cols = np.concatenate(
        [cols[:, :, k - 1 : k], cols[:, :, k:] - cols[:, :, : -k]], axis=2
    )
    aggregated[:] = cols / (k * k)


def aggregate_gpu(cost, aggregated):
    """Device variant: per-disparity-slice launches."""
    d = cost.shape[0]
    for slice_index in range(d):
        aggregate_cpu(
            cost[slice_index : slice_index + 1],
            aggregated[slice_index : slice_index + 1],
        )


def aggregate_work_profile(h: int, w: int, d: int) -> WorkProfile:
    """Box filtering the cost volume: the bandwidth-heavy stage."""
    pixels = h * w
    return WorkProfile(
        flops=6.0 * pixels * d,
        bytes_moved=4.0 * pixels * d * 3,
        parallelism=float(pixels * d),
        divergence=0.02,
        irregularity=0.05,
        cpu_efficiency=0.45,
        gpu_efficiency=0.4,
        gpu_launches=max(d // 8, 1),
    )


# ----------------------------------------------------------------------
# Stage 5: winner-take-all disparity
# ----------------------------------------------------------------------
def wta_cpu(aggregated, disparity):
    """Host variant: argmin reduction across the disparity axis."""
    if disparity.shape != aggregated.shape[1:]:
        raise KernelError("disparity map shape mismatch")
    np.copyto(disparity, np.argmin(aggregated, axis=0).astype(np.int32))


def wta_gpu(aggregated, disparity):
    """Device variant: running-minimum over disparity launches."""
    d = aggregated.shape[0]
    best_cost = aggregated[0].copy()
    best_index = np.zeros(aggregated.shape[1:], dtype=np.int32)
    for index in range(1, d):
        better = aggregated[index] < best_cost
        best_cost = np.where(better, aggregated[index], best_cost)
        best_index = np.where(better, np.int32(index), best_index)
    np.copyto(disparity, best_index)


def wta_work_profile(h: int, w: int, d: int) -> WorkProfile:
    """Argmin reduction across disparities (mildly divergent)."""
    pixels = h * w
    return WorkProfile(
        flops=2.0 * pixels * d,
        bytes_moved=4.0 * pixels * d,
        parallelism=float(pixels),
        divergence=0.25,
        irregularity=0.1,
        cpu_efficiency=0.4,
        gpu_efficiency=0.3,
        gpu_launches=1,
    )


# ----------------------------------------------------------------------
# Stage 6: 3x3 median cleanup
# ----------------------------------------------------------------------
def median3x3_cpu(disparity, cleaned):
    """Host variant: stacked-neighbour median."""
    if cleaned.shape != disparity.shape:
        raise KernelError("cleaned map shape mismatch")
    h, w = disparity.shape
    padded = np.pad(disparity, 1, mode="edge")
    stack = np.stack([
        padded[dy : dy + h, dx : dx + w]
        for dy in range(3)
        for dx in range(3)
    ])
    np.copyto(cleaned, np.median(stack, axis=0).astype(disparity.dtype))


def median3x3_gpu(disparity, cleaned):
    """Device variant: row-tile launches."""
    h = disparity.shape[0]
    out = np.empty_like(cleaned)
    median3x3_cpu(disparity, out)  # identical math
    for row0 in range(0, h, GPU_ROW_TILE):
        sl = slice(row0, min(row0 + GPU_ROW_TILE, h))
        cleaned[sl] = out[sl]


def median_work_profile(h: int, w: int) -> WorkProfile:
    """3x3 median cleanup: small, branchy, little-core material."""
    pixels = h * w
    return WorkProfile(
        flops=30.0 * pixels,
        bytes_moved=4.0 * pixels * 3,
        parallelism=float(pixels),
        divergence=0.3,
        irregularity=0.15,
        cpu_efficiency=0.35,
        gpu_efficiency=0.25,
        gpu_launches=1,
    )

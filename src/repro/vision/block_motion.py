"""Coarse-to-fine block-matching motion estimation (DESIGN.md §12).

The MVE tracker (True & Khan, "Motion Vector Extrapolation for Video
Object Detection") needs dense-ish motion for the pixels under each box,
but nothing as precise — or as expensive — as per-feature pyramidal
Lucas-Kanade.  This module matches fixed-size blocks between two frames
with an integer SAD search, refined coarse-to-fine over the existing
:class:`~repro.vision.optical_flow.FramePyramid` levels: the coarsest
level does a full ``(2r+1)^2`` scan around zero, every finer level
doubles the running estimate and rescans a ±1 neighbourhood.  With the
defaults that is 49 + 9 + 9 candidate positions per block for a ±15 px
reach at full resolution.

The search is vectorised across blocks, not candidates: per level one
clamped gather pulls every block's whole search region at once, each
candidate displacement reads its patches as views into those regions,
and the SAD reduction reuses per-thread scratch via the same pool as
the fused convolution engine.  Patches are gathered with
clamped-to-border coordinates ("clamped-border SAD"), so blocks near the
frame edge compare against edge-replicated samples — the frozen
reference in :mod:`repro.perf.reference` replicates these semantics
exactly and the two are ``np.array_equal``-pinned by the bench harness.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry import Box, clip_box
from repro.vision.image import _scratch_buffer
from repro.vision.optical_flow import FramePyramid


class _IndexScratchPool(threading.local):
    """Per-thread reusable ``intp`` buffers, mirroring the image-pool idiom.

    The shared float64 pool in :mod:`repro.vision.image` cannot hold index
    arrays, and the (N, B, B) patch gather indices recur on every level
    of every call.
    """

    _MAX_ENTRIES = 16

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, tuple[int, ...]], np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...]) -> np.ndarray:
        key = (tag, shape)
        buffer = self._buffers.get(key)
        if buffer is None:
            if len(self._buffers) >= self._MAX_ENTRIES:
                self._buffers.clear()
            buffer = np.empty(shape, dtype=np.intp)
            self._buffers[key] = buffer
        return buffer


_INDEX_SCRATCH = _IndexScratchPool()


@dataclass(frozen=True, slots=True)
class BlockMotionParams:
    """Knobs of the coarse-to-fine block matcher.

    ``coarse_radius`` is the scan radius at the coarsest pyramid level and
    ``refine_radius`` the per-level correction below it, so the maximum
    displacement reach at full resolution is roughly
    ``coarse_radius * 2**(levels-1) + refine_radius * (2**(levels-1) - 1)``.
    ``max_match_cost`` is the per-pixel mean-absolute-difference ceiling
    (images live in ``[0, 1]``) above which a block's vector is reported
    invalid — occlusions and deforming texture land there.
    """

    block_size: int = 8
    coarse_radius: int = 3
    refine_radius: int = 1
    pyramid_levels: int = 3
    max_match_cost: float = 0.08

    def __post_init__(self) -> None:
        if self.block_size < 2:
            raise ValueError("block_size must be >= 2")
        if self.coarse_radius < 1:
            raise ValueError("coarse_radius must be >= 1")
        if self.refine_radius < 1:
            raise ValueError("refine_radius must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.max_match_cost <= 0:
            raise ValueError("max_match_cost must be positive")


@dataclass(frozen=True, slots=True)
class BlockMotionField:
    """Integer motion vectors for N blocks between two frames.

    ``points``: ``(N, 2)`` block centres in full-resolution ``(x, y)``.
    ``vectors``: ``(N, 2)`` integer displacements (stored as float64).
    ``cost``: ``(N,)`` per-pixel mean absolute difference at the match.
    ``valid``: ``(N,)`` bool — cheap match found and target centre in frame.
    """

    points: np.ndarray
    vectors: np.ndarray
    cost: np.ndarray
    valid: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.points.shape[0])

    def good_vectors(self) -> np.ndarray:
        return self.vectors[self.valid]


def _gather_blocks(
    flat: np.ndarray,
    height: int,
    width: int,
    cx: np.ndarray,
    cy: np.ndarray,
    offsets: np.ndarray,
    out: np.ndarray,
    index_buffer: np.ndarray,
) -> np.ndarray:
    """Gather one square patch of side ``len(offsets)`` per centre, with
    each coordinate clamped to the border."""
    rows = np.clip(cy[:, None] + offsets[None, :], 0, height - 1)
    cols = np.clip(cx[:, None] + offsets[None, :], 0, width - 1)
    np.multiply(rows, width, out=rows)
    np.add(rows[:, :, None], cols[:, None, :], out=index_buffer)
    np.take(flat, index_buffer, out=out)
    return out


def _match_level(
    prev_level: np.ndarray,
    next_level: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    predicted: np.ndarray,
    radius: int,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Best integer displacement per block around ``predicted`` at one level.

    Each block's clamped ``(B+2r)^2`` search region is gathered once;
    clamping is per coordinate, so the region's ``B x B`` window at
    ``(dy + r, dx + r)`` holds exactly the clamped gather of candidate
    ``(dy, dx)``.  Candidates are scanned in row-major ``(dy, dx)`` order
    with a strict ``<`` comparison, so ties resolve to the first
    candidate — the frozen reference must (and does) scan in the same
    order.
    """
    height, width = prev_level.shape
    n = cx.shape[0]
    offsets = np.arange(block_size, dtype=np.intp) - block_size // 2
    shape = (n, block_size, block_size)
    prev_patches = _scratch_buffer("bm.prev", shape)
    candidate = _scratch_buffer("bm.cand", shape)
    index_buffer = _INDEX_SCRATCH.get("bm.idx", shape)
    flat_prev = prev_level.ravel()
    flat_next = next_level.ravel()
    _gather_blocks(flat_prev, height, width, cx, cy, offsets, prev_patches, index_buffer)
    span = block_size + 2 * radius
    region_shape = (n, span, span)
    region = _gather_blocks(
        flat_next,
        height,
        width,
        cx + predicted[:, 0],
        cy + predicted[:, 1],
        np.arange(span, dtype=np.intp) - (block_size // 2 + radius),
        np.empty(region_shape, dtype=np.float64),
        np.empty(region_shape, dtype=np.intp),
    )

    side = 2 * radius + 1
    best_sad = np.full(n, np.inf, dtype=np.float64)
    # Scan-order index of each block's running best candidate, decoded to
    # an offset after the scan; it starts at the zero offset so a block no
    # candidate improves on keeps ``predicted``.
    best_candidate = np.full(n, radius * side + radius, dtype=np.intp)
    better = np.empty(n, dtype=bool)
    for dy in range(side):
        rows = region[:, dy : dy + block_size]
        for dx in range(side):
            np.subtract(rows[:, :, dx : dx + block_size], prev_patches, out=candidate)
            np.abs(candidate, out=candidate)
            sad = candidate.reshape(n, -1).sum(axis=1)
            np.less(sad, best_sad, out=better)
            np.copyto(best_sad, sad, where=better)
            np.copyto(best_candidate, dy * side + dx, where=better)
    best = predicted - radius
    best[:, 0] += best_candidate % side
    best[:, 1] += best_candidate // side
    return best, best_sad


def block_motion_field(
    prev_frame: np.ndarray | FramePyramid,
    next_frame: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: BlockMotionParams | None = None,
) -> BlockMotionField:
    """Coarse-to-fine block-matching motion field at ``points``.

    ``points`` is ``(N, 2)`` block centres in full-resolution ``(x, y)``
    coordinates.  Either frame may be a precomputed
    :class:`FramePyramid` (the MVE tracker passes cache-shared pyramids);
    raw arrays are wrapped with ``params.pyramid_levels`` levels.  Only the
    pyramid *images* are read — gradients are never computed, which is a
    large share of why this is cheaper than Lucas-Kanade.
    """
    params = params or BlockMotionParams()
    if not isinstance(prev_frame, FramePyramid):
        prev_frame = FramePyramid(prev_frame, params.pyramid_levels)
    if not isinstance(next_frame, FramePyramid):
        next_frame = FramePyramid(next_frame, params.pyramid_levels)
    if prev_frame.shape != next_frame.shape:
        raise ValueError("frame shapes differ")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return BlockMotionField(
            points=np.zeros((0, 2)),
            vectors=np.zeros((0, 2)),
            cost=np.zeros(0),
            valid=np.zeros(0, dtype=bool),
        )

    levels = min(prev_frame.levels, next_frame.levels, params.pyramid_levels)
    displacement = np.zeros((n, 2), dtype=np.intp)
    sad = np.zeros(n, dtype=np.float64)
    for level in range(levels - 1, -1, -1):
        prev_level = prev_frame.images[level]
        next_level = next_frame.images[level]
        scale = 0.5**level
        cx = np.rint(points[:, 0] * scale).astype(np.intp)
        cy = np.rint(points[:, 1] * scale).astype(np.intp)
        radius = params.coarse_radius if level == levels - 1 else params.refine_radius
        displacement, sad = _match_level(
            prev_level, next_level, cx, cy, displacement, radius, params.block_size
        )
        if level > 0:
            displacement = displacement * 2

    vectors = displacement.astype(np.float64)
    cost = sad / float(params.block_size * params.block_size)
    height, width = prev_frame.shape
    target_x = points[:, 0] + vectors[:, 0]
    target_y = points[:, 1] + vectors[:, 1]
    valid = (
        (cost <= params.max_match_cost)
        & (target_x >= 0)
        & (target_x <= width - 1)
        & (target_y >= 0)
        & (target_y <= height - 1)
    )
    return BlockMotionField(points=points, vectors=vectors, cost=cost, valid=valid)


def box_block_centers(
    boxes: Sequence[Box],
    frame_width: int,
    frame_height: int,
    block_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Grid-aligned block centres covering each box, with owner indices.

    Returns ``(points, owners)`` where ``points`` is ``(N, 2)`` centres of
    the frame-global block grid that fall inside each box (clipped to the
    frame), and ``owners[k]`` is the index into ``boxes`` that centre
    belongs to.  A box too small to contain any grid centre contributes
    its own centre point, so every live box always has at least one motion
    sample — the block-matching analogue of the tracker's centre-feature
    fallback.  Total centre count scales with summed box area over
    ``block_size**2``, which is what makes the MVE tracker O(boxes).
    """
    if block_size < 2:
        raise ValueError("block_size must be >= 2")
    half = block_size / 2.0
    points: list[tuple[float, float]] = []
    owners: list[int] = []
    for index, box in enumerate(boxes):
        clipped = clip_box(box, frame_width, frame_height)
        if clipped.area <= 0:
            continue
        k0 = int(np.ceil((clipped.left - half) / block_size))
        k1 = int(np.floor((clipped.right - half) / block_size))
        j0 = int(np.ceil((clipped.top - half) / block_size))
        j1 = int(np.floor((clipped.bottom - half) / block_size))
        xs = [
            k * block_size + half
            for k in range(max(k0, 0), k1 + 1)
            if k * block_size + half <= frame_width - 1
        ]
        ys = [
            j * block_size + half
            for j in range(max(j0, 0), j1 + 1)
            if j * block_size + half <= frame_height - 1
        ]
        if not xs or not ys:
            cx, cy = clipped.center
            points.append((cx, cy))
            owners.append(index)
            continue
        for cy in ys:
            for cx in xs:
                points.append((cx, cy))
                owners.append(index)
    if not points:
        return np.zeros((0, 2), dtype=np.float64), np.zeros(0, dtype=np.intp)
    return (
        np.asarray(points, dtype=np.float64),
        np.asarray(owners, dtype=np.intp),
    )

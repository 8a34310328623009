"""Iterative pyramidal Lucas-Kanade sparse optical flow [Lucas & Kanade 1981].

The equivalent of OpenCV's ``calcOpticalFlowPyrLK``, which the paper uses
to propagate good features from one DNN-detected frame through the
accumulated frames (paper §IV-C).  The implementation follows Bouguet's
classic pyramidal formulation and is vectorised across feature points:
all windows are gathered and iterated together, so tracking ~100 points
costs a handful of numpy operations per iteration.

Per-point status reports tracking failure, which is central to the paper's
behaviour: fast content loses features, which degrades box propagation and
raises the measured content-change velocity.

Window sampling is separable (DESIGN.md §7): a window's sample columns
depend only on the point's x and its rows only on its y, so clamping,
truncation and bilinear fractions are computed per axis, and a window
whose integer cells are consecutive reads all four bilinear corners of
every sample from one ``(W+1)^2`` pixel block gathered once.  Each
sample still goes through exactly the float operations of
:func:`~repro.vision.image.sample_bilinear`, so the result is
bit-identical to sampling the full ``(N, W, W)`` coordinate grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.vision.image import build_pyramid, image_gradients


@dataclass(frozen=True, slots=True)
class LKParams:
    """Tuning knobs for pyramidal Lucas-Kanade.

    Defaults mirror common OpenCV usage (15x15 window, 3 pyramid levels,
    up to 10 iterations, 0.03 px convergence threshold).
    """

    window_radius: int = 7
    pyramid_levels: int = 3
    max_iterations: int = 10
    epsilon: float = 0.03
    min_eigen_threshold: float = 1e-5
    # A point whose appearance changed too much between frames is reported
    # lost.  0.055 (images in [0,1]) is tuned so deforming fast content
    # sheds features within a few steps while slow rigid content keeps
    # them — the differential that drives the paper's Observation 3.
    max_residual: float = 0.048

    def __post_init__(self) -> None:
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.min_eigen_threshold <= 0:
            raise ValueError("min_eigen_threshold must be positive")
        # A non-positive residual ceiling silently marks every tracked point
        # lost, which reads as "fast content" and pins the adaptation policy
        # at its smallest setting.
        if self.max_residual <= 0:
            raise ValueError("max_residual must be positive")


class FramePyramid:
    """Precomputed pyramid (images + gradients) for one frame.

    Tracking frame ``i`` to ``i+1`` and then ``i+1`` to ``i+2`` reuses the
    middle frame's pyramid, which roughly halves per-step cost — the same
    optimisation OpenCV exposes via ``buildOpticalFlowPyramid``.

    Gradients are memoised per level: the first ``gradients(level)`` call
    computes them, every later one — across LK levels and repeated
    ``track_features`` calls — returns the stored pair.  The memo is a pure
    function of the (immutable) pyramid images, so a hit is bit-identical
    to a recompute.
    """

    def __init__(self, image: np.ndarray, levels: int) -> None:
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 2:
            raise ValueError("FramePyramid expects a 2-D grayscale frame")
        self.shape = image.shape
        self.images = build_pyramid(image, levels)
        self._gradients: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(
            self.images
        )

    @classmethod
    def from_arrays(
        cls,
        images: "list[np.ndarray] | tuple[np.ndarray, ...]",
        gradients: "tuple[tuple[np.ndarray, np.ndarray], ...] | None" = None,
    ) -> "FramePyramid":
        """Adopt prebuilt pyramid levels without rebuilding them.

        ``images`` must be exactly what :func:`build_pyramid` would produce
        (finest first); ``gradients``, when given, pre-fills the per-level
        memo with ``(Ix, Iy)`` pairs.  This is the artifact-store read
        path: a stored pyramid is reconstructed as views over shared bytes
        instead of re-running blur/decimate and Scharr passes.
        """
        if not images:
            raise ValueError("from_arrays needs at least one pyramid level")
        pyramid = cls.__new__(cls)
        pyramid.shape = images[0].shape
        pyramid.images = list(images)
        memo: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(images)
        if gradients is not None:
            if len(gradients) != len(images):
                raise ValueError("gradients must pair one (Ix, Iy) per level")
            for level, pair in enumerate(gradients):
                memo[level] = (pair[0], pair[1])
        pyramid._gradients = memo
        return pyramid

    @property
    def levels(self) -> int:
        return len(self.images)

    def gradients(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        cached = self._gradients[level]
        if cached is None:
            cached = image_gradients(self.images[level])
            self._gradients[level] = cached
        return cached

    def warm_gradients(self) -> None:
        """Materialise every level's gradient memo (idempotent).

        Lets a builder (e.g. :func:`~repro.vision.pyramid_cache.load_pyramid`
        publishing to the artifact store) pay the gradient cost up front,
        off the consumer's critical path.
        """
        for level in range(self.levels):
            self.gradients(level)


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Result of tracking N points between two frames.

    ``points``: ``(N, 2)`` tracked positions in the second frame.
    ``status``: ``(N,)`` bool, True where tracking succeeded.
    ``residual``: ``(N,)`` mean absolute window residual (diagnostics).
    """

    points: np.ndarray
    status: np.ndarray
    residual: np.ndarray

    def good_points(self) -> np.ndarray:
        return self.points[self.status]


def _axis_cells(coords: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Clamped integer cells and bilinear fractions of one sample axis.

    The clamp, truncation and fraction are :func:`sample_bilinear`'s, applied
    to the ``(M, W)`` per-axis coordinates instead of the broadcast grid.
    """
    clamped = np.clip(coords, 0.0, size - 1.000001)
    cells = clamped.astype(np.intp)
    return cells, clamped - cells


def _block_view(image: np.ndarray, span: int) -> np.ndarray | None:
    """Read-only view whose ``[y, x]`` entry is ``image[y:y+span, x:x+span]``.

    ``None`` when the image is smaller than a block; then no window can
    have ``span - 1`` consecutive in-range cells, so no row reads the view.
    """
    h, w = image.shape
    if h < span or w < span:
        return None
    s0, s1 = image.strides
    return as_strided(
        image,
        shape=(h - span + 1, w - span + 1, span, span),
        strides=(s0, s1, s0, s1),
        writeable=False,
    )


def _sample_corners(
    image: np.ndarray,
    x0: np.ndarray,
    fx: np.ndarray,
    y0: np.ndarray,
    fy: np.ndarray,
) -> np.ndarray:
    """Four-corner flat gather over the broadcast window grid.

    The fallback for windows whose cells are clamped at a border or not
    consecutive; it is :func:`sample_bilinear` with the per-axis cells and
    fractions broadcast to ``(M, W, W)``.
    """
    w = image.shape[1]
    flat = image.ravel()
    base = y0[:, :, None] * w + x0[:, None, :]
    tl = flat[base]
    tr = flat[base + 1]
    bl = flat[base + w]
    br = flat[base + w + 1]
    fx = fx[:, None, :]
    top = tl + (tr - tl) * fx
    bottom = bl + (br - bl) * fx
    return top + (bottom - top) * fy[:, :, None]


def _sample_blocks(
    view: np.ndarray,
    x0: np.ndarray,
    fx: np.ndarray,
    y0: np.ndarray,
    fy: np.ndarray,
) -> np.ndarray:
    """Bilinear samples of windows with consecutive cells, one block each.

    Window ``m``'s block starts at cell ``(y0[m, 0], x0[m, 0])``; its column
    ``j`` and ``j + 1`` are every sample's left and right corners, so one
    horizontal pass over all ``W + 1`` block rows yields each sample row's
    top (row ``i``) and bottom (row ``i + 1``) — the very values the
    four-corner gather computes.
    """
    blocks = view[y0[:, 0], x0[:, 0]]
    left = blocks[:, :, :-1]
    # ``left + (right - left) * fx`` evaluated in place; IEEE addition is
    # commutative, so accumulating onto the product is the same sum.
    rows = np.subtract(blocks[:, :, 1:], left)
    rows *= fx[:, None, :]
    rows += left
    top = rows[:, :-1]
    out = np.subtract(rows[:, 1:], top)
    out *= fy[:, :, None]
    out += top
    return out


def _sample_windows(
    sources: "tuple[tuple[np.ndarray, np.ndarray | None], ...]",
    xs: np.ndarray,
    ys: np.ndarray,
) -> list[np.ndarray]:
    """Sample each ``(image, block view)`` source on the separable window grid.

    ``xs[m, j]`` and ``ys[m, i]`` are window ``m``'s column and row
    coordinates; the result for each source is ``(M, W, W)`` with sample
    ``[m, i, j]`` at ``(xs[m, j], ys[m, i])``, bit-identical to
    :func:`~repro.vision.image.sample_bilinear` on the broadcast grid.
    The sources must share one shape.  Each window takes the block path
    when both its column and row cells are consecutive and the four-corner
    fallback otherwise.
    """
    h, w = sources[0][0].shape
    x0, fx = _axis_cells(xs, w)
    y0, fy = _axis_cells(ys, h)
    ramp = np.arange(xs.shape[1])
    blocked = (x0 == x0[:, :1] + ramp).all(axis=1)
    blocked &= (y0 == y0[:, :1] + ramp).all(axis=1)
    if blocked.all():
        return [_sample_blocks(view, x0, fx, y0, fy) for _, view in sources]
    if not blocked.any():
        return [_sample_corners(image, x0, fx, y0, fy) for image, _ in sources]
    fast = np.nonzero(blocked)[0]
    slow = np.nonzero(~blocked)[0]
    corner_args = (x0[slow], fx[slow], y0[slow], fy[slow])
    block_args = (x0[fast], fx[fast], y0[fast], fy[fast])
    outputs = []
    for image, view in sources:
        out = np.empty((xs.shape[0], ys.shape[1], xs.shape[1]), dtype=np.float64)
        out[fast] = _sample_blocks(view, *block_args)
        out[slow] = _sample_corners(image, *corner_args)
        outputs.append(out)
    return outputs


def track_features(
    prev_image: np.ndarray | FramePyramid,
    next_image: np.ndarray | FramePyramid,
    points: np.ndarray,
    params: LKParams | None = None,
) -> FlowResult:
    """Track ``points`` from ``prev_image`` to ``next_image``.

    ``points`` is ``(N, 2)`` in ``(x, y)`` order.  Both frames must share
    the same shape and be 2-D grayscale in ``[0, 1]``; either may be passed
    as a precomputed :class:`FramePyramid` to amortise pyramid construction
    across consecutive tracking steps.
    """
    params = params or LKParams()
    if not isinstance(prev_image, FramePyramid):
        prev_image = FramePyramid(prev_image, params.pyramid_levels)
    if not isinstance(next_image, FramePyramid):
        next_image = FramePyramid(next_image, params.pyramid_levels)
    if prev_image.shape != next_image.shape:
        raise ValueError("frame shapes differ")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    n = points.shape[0]
    if n == 0:
        return FlowResult(
            points=np.zeros((0, 2)),
            status=np.zeros(0, dtype=bool),
            residual=np.zeros(0),
        )

    prev_pyr = prev_image.images
    next_pyr = next_image.images
    levels = min(prev_image.levels, next_image.levels)

    offs = np.arange(-params.window_radius, params.window_radius + 1, dtype=np.float64)
    span = offs.size + 1
    window_area = offs.size * offs.size

    flow = np.zeros((n, 2), dtype=np.float64)
    status = np.ones(n, dtype=bool)
    residual = np.full(n, np.inf, dtype=np.float64)

    for level in range(levels - 1, -1, -1):
        prev_l = prev_pyr[level]
        next_l = next_pyr[level]
        grad_x, grad_y = prev_image.gradients(level)
        scale = 0.5**level
        pts_l = points * scale
        h, w = prev_l.shape

        # Window sample coordinates around each point in the previous frame,
        # per axis: column j of wx is x + offs[j], row i of wy is y + offs[i].
        wx = pts_l[:, 0, None] + offs
        wy = pts_l[:, 1, None] + offs

        in_bounds = (
            (pts_l[:, 0] >= params.window_radius)
            & (pts_l[:, 0] <= w - 1 - params.window_radius)
            & (pts_l[:, 1] >= params.window_radius)
            & (pts_l[:, 1] <= h - 1 - params.window_radius)
        )

        prev_sources = tuple(
            (image, _block_view(image, span)) for image in (prev_l, grad_x, grad_y)
        )
        next_source = ((next_l, _block_view(next_l, span)),)
        patch_prev, ix, iy = _sample_windows(prev_sources, wx, wy)

        gxx = np.einsum("nij,nij->n", ix, ix)
        gxy = np.einsum("nij,nij->n", ix, iy)
        gyy = np.einsum("nij,nij->n", iy, iy)
        trace_half = (gxx + gyy) / 2.0
        disc = np.sqrt(np.maximum(((gxx - gyy) / 2.0) ** 2 + gxy * gxy, 0.0))
        min_eigen = (trace_half - disc) / window_area
        det = gxx * gyy - gxy * gxy

        solvable = in_bounds & (min_eigen > params.min_eigen_threshold) & (det > 1e-12)
        # Only the finest level is authoritative for failure: a point that
        # falls outside a *coarse* level's usable area simply skips that
        # level's refinement (matching OpenCV), keeping its current flow.
        if level == 0:
            status &= solvable
        # Keep the solve well-defined for failed points; their output is
        # ignored but must not produce NaNs that poison the arrays.
        det_safe = np.where(det > 1e-12, det, 1.0)

        v = np.zeros((n, 2), dtype=np.float64)
        active = solvable.copy()
        for _ in range(params.max_iterations):
            if not active.any():
                break
            # Gather only the rows still iterating: once a point converges
            # its window never needs resampling again, and convergence is
            # front-loaded (most points stop within a few iterations), so
            # the tail iterations touch a small fraction of N.  Per-row
            # arithmetic is unchanged, so results are bit-identical to the
            # all-rows formulation.  When every row is active the gather
            # copy is skipped entirely.
            if active.all():
                rows = slice(None)
            else:
                rows = np.nonzero(active)[0]
            qx = wx[rows] + (flow[rows, 0] + v[rows, 0])[:, None]
            qy = wy[rows] + (flow[rows, 1] + v[rows, 1])[:, None]
            (patch_next,) = _sample_windows(next_source, qx, qy)
            diff = patch_prev[rows] - patch_next
            bx = np.einsum("nij,nij->n", diff, ix[rows])
            by = np.einsum("nij,nij->n", diff, iy[rows])
            dvx = (gyy[rows] * bx - gxy[rows] * by) / det_safe[rows]
            dvy = (gxx[rows] * by - gxy[rows] * bx) / det_safe[rows]
            v[rows, 0] += dvx
            v[rows, 1] += dvy
            active[rows] = np.hypot(dvx, dvy) >= params.epsilon

        flow = np.where(solvable[:, None], flow + v, flow)

        if level == 0:
            qx = wx + flow[:, 0][:, None]
            qy = wy + flow[:, 1][:, None]
            (patch_next,) = _sample_windows(next_source, qx, qy)
            residual = np.abs(patch_prev - patch_next).mean(axis=(1, 2))
        else:
            flow *= 2.0

    new_points = points + flow
    h0, w0 = prev_pyr[0].shape
    inside = (
        (new_points[:, 0] >= 0)
        & (new_points[:, 0] <= w0 - 1)
        & (new_points[:, 1] >= 0)
        & (new_points[:, 1] <= h0 - 1)
    )
    status = status & inside & (residual <= params.max_residual)
    return FlowResult(points=new_points, status=status, residual=residual)

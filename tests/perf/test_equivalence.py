"""The optimisation contract: bit-identical output vs the frozen pre-PR
implementations, on the bench workloads and on off-nominal variants.

The golden-trace digests (tests/integration/test_golden_trace.py) pin the
full pipelines; these tests localise the same guarantee to the two
rewritten kernels, so a future regression points at the kernel and not at
"some digest changed"."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import reference, workloads
from repro.vision import optical_flow
from repro.vision.block_motion import BlockMotionParams, block_motion_field
from repro.vision.features import suppress_min_distance
from repro.vision.optical_flow import FramePyramid, LKParams, track_features


@lru_cache(maxsize=None)
def _bench_pyramids() -> tuple[FramePyramid, ...]:
    """Three-level pyramids of the bench clip's frames 0..4 (gaps 1-4)."""
    clip = workloads.bench_clip()
    return tuple(
        FramePyramid(np.asarray(clip.frame(i), dtype=np.float64), 3) for i in range(5)
    )


def _border_points(
    seed: int, n: int, reach: float, shape: tuple[int, int]
) -> np.ndarray:
    """``n`` points on, near and outside the frame borders, plus interior ones.

    Each point sits within ``reach`` full-resolution pixels of one of the
    four borders (either side of it) or anywhere inside the frame; a third
    of the border offsets are whole pixels, so points land exactly on the
    border and on cell edges.  A window reaches a border at pyramid level
    ``l`` within ``radius * 2**l`` pixels of it, so ``reach`` picks the
    levels whose windows clamp.
    """
    height, width = shape
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, width - 1.0, n)
    ys = rng.uniform(0.0, height - 1.0, n)
    side = rng.integers(0, 5, n)
    offset = rng.uniform(-reach, reach, n)
    whole = rng.random(n) < 1.0 / 3.0
    offset[whole] = np.round(offset[whole])
    xs[side == 0] = offset[side == 0]
    xs[side == 1] = width - 1.0 + offset[side == 1]
    ys[side == 2] = offset[side == 2]
    ys[side == 3] = height - 1.0 + offset[side == 3]
    return np.stack([xs, ys], axis=1)


class TestNMSEquivalence:
    @pytest.mark.parametrize(
        "min_distance, max_corners",
        [(4.0, 100), (3.0, 100), (7.5, 40), (1.0, 500), (4.0, 10_000)],
    )
    def test_matches_reference_selection(self, min_distance, max_corners):
        wl = workloads.make_nms_workload(
            min_distance=min_distance, max_corners=max_corners
        )
        optimized = suppress_min_distance(
            wl.candidate_xs, wl.candidate_ys, wl.shape, min_distance, max_corners
        )
        expected = reference.suppress_min_distance_reference(
            wl.candidate_xs, wl.candidate_ys, min_distance, max_corners
        )
        assert np.array_equal(optimized, expected)

    def test_empty_candidates(self):
        empty = np.array([], dtype=np.intp)
        out = suppress_min_distance(empty, empty, (32, 32), 4.0, 10)
        assert out.shape == (0, 2)


class TestLKEquivalence:
    @pytest.mark.parametrize(
        "num_points, frame_gap, params",
        [
            (300, 2, None),  # the bench workload itself
            (60, 1, None),
            (120, 4, None),  # larger motion -> more early deactivations
            (80, 2, LKParams(pyramid_levels=1)),
            (80, 2, LKParams(max_iterations=3)),
        ],
    )
    def test_bitwise_identical_flow(self, num_points, frame_gap, params):
        wl = workloads.make_lk_workload(
            num_points=num_points, frame_gap=frame_gap, params=params
        )
        optimized = track_features(wl.pyramid_a, wl.pyramid_b, wl.points, wl.params)
        expected = reference.track_features_reference(
            wl.pyramid_a, wl.pyramid_b, wl.points, wl.params
        )
        assert np.array_equal(optimized.points, expected.points)
        assert np.array_equal(optimized.status, expected.status)
        assert np.array_equal(optimized.residual, expected.residual)

    def test_no_points(self):
        wl = workloads.make_lk_workload(num_points=40)
        empty = np.zeros((0, 2), dtype=np.float64)
        result = track_features(wl.pyramid_a, wl.pyramid_b, empty, wl.params)
        assert result.points.shape == (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 43, 300]),
        gap=st.integers(1, 4),
        reach=st.sampled_from([2.0, 8.0, 16.0, 32.0]),
        params=st.sampled_from(
            [LKParams(), LKParams(pyramid_levels=1), LKParams(window_radius=3)]
        ),
    )
    def test_border_windows_bitwise_identical(self, seed, n, gap, reach, params):
        """Windows clamped at any border of any level, on either sampling
        path, against the frozen full-grid sampler."""
        pyramids = _bench_pyramids()
        prev, nxt = pyramids[0], pyramids[gap]
        points = _border_points(seed, n, reach, prev.shape)
        optimized = track_features(prev, nxt, points, params)
        expected = reference.track_features_reference(prev, nxt, points, params)
        assert np.array_equal(optimized.points, expected.points)
        assert np.array_equal(optimized.status, expected.status)
        assert np.array_equal(optimized.residual, expected.residual)

    def test_border_points_take_the_corner_fallback(self, monkeypatch):
        """The four-corner fallback really runs on clamped windows (and the
        block path on interior ones), so the border cases above exercise
        both samplers."""
        calls = {"corners": 0, "blocks": 0}

        def counting(name, original):
            def wrapper(*args):
                calls[name] += args[1].shape[0]
                return original(*args)

            return wrapper

        monkeypatch.setattr(
            optical_flow,
            "_sample_corners",
            counting("corners", optical_flow._sample_corners),
        )
        monkeypatch.setattr(
            optical_flow,
            "_sample_blocks",
            counting("blocks", optical_flow._sample_blocks),
        )
        pyramids = _bench_pyramids()
        height, width = pyramids[0].shape
        points = np.array(
            [
                [0.0, height / 2],
                [width - 1.0, height / 3],
                [width / 2, 0.25],
                [width / 3, height - 1.0],
                [-3.0, -3.0],
                [width / 2, height / 2],
            ]
        )
        optimized = track_features(pyramids[0], pyramids[2], points)
        expected = reference.track_features_reference(pyramids[0], pyramids[2], points)
        assert np.array_equal(optimized.points, expected.points)
        assert np.array_equal(optimized.residual, expected.residual)
        assert calls["corners"] > 0
        assert calls["blocks"] > 0


class TestBlockMotionEquivalence:
    """The vectorised coarse-to-fine block matcher against the frozen
    per-block per-candidate Python scan, on the MVE bench workload and
    off-nominal variants (single-level search, tighter refine radius,
    larger blocks, wider frame gap)."""

    @pytest.mark.parametrize(
        "frame_gap, params",
        [
            (2, None),  # the bench workload itself
            (1, None),
            (4, None),  # larger motion -> more clipped candidates
            (2, BlockMotionParams(pyramid_levels=1)),
            (2, BlockMotionParams(refine_radius=1)),
            (2, BlockMotionParams(block_size=24, coarse_radius=2)),
        ],
    )
    def test_bitwise_identical_field(self, frame_gap, params):
        wl = workloads.make_mve_workload(frame_gap=frame_gap, params=params)
        optimized = block_motion_field(
            wl.pyramid_a, wl.pyramid_b, wl.points, wl.params
        )
        expected = reference.block_motion_field_reference(
            wl.pyramid_a, wl.pyramid_b, wl.points, wl.params
        )
        assert np.array_equal(optimized.vectors, expected.vectors)
        assert np.array_equal(optimized.cost, expected.cost)
        assert np.array_equal(optimized.valid, expected.valid)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 43, 300]),
        gap=st.integers(1, 4),
        reach=st.sampled_from([4.0, 12.0, 30.0]),
        params=st.sampled_from(
            [BlockMotionParams(), BlockMotionParams(block_size=5, refine_radius=2)]
        ),
    )
    def test_clamped_search_regions_bitwise_identical(
        self, seed, n, gap, reach, params
    ):
        """Block centres whose search region runs off a border: the region
        gather clamps per coordinate exactly as per-candidate gathers do.
        At the defaults a coarse region spans 7 level-2 pixels either side
        of its centre (28 full-resolution pixels), a refine region 5."""
        pyramids = _bench_pyramids()
        prev, nxt = pyramids[0], pyramids[gap]
        points = _border_points(seed, n, reach, prev.shape)
        optimized = block_motion_field(prev, nxt, points, params)
        expected = reference.block_motion_field_reference(prev, nxt, points, params)
        assert np.array_equal(optimized.vectors, expected.vectors)
        assert np.array_equal(optimized.cost, expected.cost)
        assert np.array_equal(optimized.valid, expected.valid)

    def test_no_blocks(self):
        wl = workloads.make_mve_workload()
        empty = np.zeros((0, 2), dtype=np.float64)
        result = block_motion_field(wl.pyramid_a, wl.pyramid_b, empty, wl.params)
        assert result.vectors.shape == (0, 2)
        assert result.valid.shape == (0,)


class TestRenderEquivalence:
    """The renderer fast path (separable sampling, background memo, fused
    warp gather, memoized warp tables) against the frozen meshgrid
    reference — on static-camera, jittered, and panning scenes, so both
    the memo-hit and the memo-miss background paths are pinned."""

    @pytest.mark.parametrize(
        "scenario, seed",
        [
            ("highway_surveillance", 7),  # static camera: background memo path
            ("racetrack", 7),             # camera jitter: per-frame offsets
            ("car_highway", 3),           # camera pan + jitter
            ("meeting_room", 11),         # static, sparse scene
        ],
    )
    def test_render_frame_bitwise_identical(self, scenario, seed):
        from repro.video.dataset import make_clip

        clip = make_clip(scenario, seed=seed, num_frames=5)
        ref = reference.ReferenceFrameRenderer(clip.renderer.scene)
        for index in range(5):
            assert np.array_equal(
                clip.renderer.render_frame(index), ref.render_frame(index)
            ), f"{scenario} frame {index} diverged"

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("age", [0, 3, 17])
    def test_warp_modulation_memo_bitwise_identical(self, seed, age):
        from repro.video.render import _warp_modulation

        expected = reference.warp_modulation_reference(seed, 24.0, age)
        # Twice: the first call fills the per-seed table memo, the second
        # reads it; both must reproduce the reference bit-for-bit.
        assert _warp_modulation(seed, 24.0, age) == expected
        assert _warp_modulation(seed, 24.0, age) == expected


class TestConvEquivalence:
    """The fused separable-convolution engine (batched tap sweeps, scratch
    reuse, blur+decimate pyramid) against the frozen allocate-per-tap
    references.  Shapes cover odd/even extents, the batch-dispatch
    threshold, and the tiny-image reflect-pad fallback; sigmas cover
    radius 2 through 9."""

    SHAPES = [(180, 320), (181, 321), (64, 48), (17, 33), (8, 8)]
    SIGMAS = [0.5, 1.0, 1.5, 3.0]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_gaussian_blur_bitwise_identical(self, shape, sigma):
        from repro.vision.image import gaussian_blur

        rng = np.random.default_rng(hash(shape) % 2**32)
        image = rng.standard_normal(shape)  # negatives and near-zeros included
        assert np.array_equal(
            gaussian_blur(image, sigma),
            reference.gaussian_blur_reference(image, sigma),
        )

    @pytest.mark.parametrize("channels, shape", [(3, (21, 41)), (4, (180, 320))])
    @pytest.mark.parametrize("sigma", [0.5, 1.5, 3.0])
    def test_batched_blur_matches_reference_per_channel(self, channels, shape, sigma):
        """Both dispatch arms — the (3,21,41) stack stays under the batch
        threshold, the (4,180,320) stack goes through the per-channel
        loop — must match the frozen single-image blur."""
        from repro.vision.image import gaussian_blur_batched

        rng = np.random.default_rng(99)
        stack = rng.random((channels, *shape))
        out = gaussian_blur_batched(stack, sigma)
        for c in range(channels):
            assert np.array_equal(
                out[c], reference.gaussian_blur_reference(stack[c], sigma)
            ), f"channel {c} diverged"

    @pytest.mark.parametrize(
        "shape", [(180, 320), (181, 321), (64, 48), (17, 33), (2, 2), (3, 3)]
    )
    def test_pyramid_down_bitwise_identical(self, shape):
        from repro.vision.image import pyramid_down

        rng = np.random.default_rng(5)
        image = rng.random(shape)
        assert np.array_equal(
            pyramid_down(image), reference.pyramid_down_reference(image)
        )

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(180, 320), (181, 321)])
    def test_build_pyramid_bitwise_identical(self, levels, shape):
        from repro.vision.image import build_pyramid

        rng = np.random.default_rng(11)
        image = rng.random(shape)
        got = build_pyramid(image, levels)
        expected = reference.build_pyramid_reference(image, levels)
        assert len(got) == len(expected)
        for level, (a, b) in enumerate(zip(got, expected)):
            assert np.array_equal(a, b), f"level {level} diverged"

    @pytest.mark.parametrize(
        "shape", [(180, 320), (17, 33), (2, 9), (9, 2), (1, 9), (9, 1), (1, 1)]
    )
    def test_image_gradients_bitwise_identical(self, shape):
        """Including degenerate 1-pixel axes, where reflect padding
        becomes edge replication."""
        from repro.vision.image import image_gradients

        rng = np.random.default_rng(23)
        image = rng.standard_normal(shape)
        gx, gy = image_gradients(image)
        ex, ey = reference.image_gradients_reference(image)
        assert np.array_equal(gx, ex)
        assert np.array_equal(gy, ey)

    @pytest.mark.parametrize("window_sigma", [1.0, 1.5, 2.5])
    def test_shi_tomasi_bitwise_identical_on_bench_rois(self, window_sigma):
        from repro.vision.features import shi_tomasi_response

        wl = workloads.make_conv_workload(window_sigma=window_sigma)
        for roi in wl.rois:
            assert np.array_equal(
                shi_tomasi_response(roi, window_sigma),
                reference.shi_tomasi_response_reference(roi, window_sigma),
            )

    def test_shi_tomasi_bitwise_identical_full_frame(self):
        from repro.vision.features import shi_tomasi_response

        wl = workloads.make_conv_workload()
        assert np.array_equal(
            shi_tomasi_response(wl.frame),
            reference.shi_tomasi_response_reference(wl.frame),
        )

    def test_good_features_masked_and_unmasked_unchanged(self):
        """good_features_to_track is downstream of every fused kernel; its
        selections on the bench frame (with and without a mask) must be
        what the frozen response produces."""
        from repro.vision.features import (
            good_features_to_track,
            suppress_min_distance,
        )

        wl = workloads.make_conv_workload()
        frame = wl.frame
        mask = np.zeros(frame.shape, dtype=bool)
        mask[40:140, 60:260] = True
        for use_mask in (False, True):
            got = good_features_to_track(
                frame,
                max_corners=80,
                quality_level=0.02,
                min_distance=3.0,
                mask=mask if use_mask else None,
            )
            # Recompute the selection from the frozen response chain.
            response = reference.shi_tomasi_response_reference(frame)
            response[:1, :] = response[-1:, :] = 0.0
            response[:, :1] = response[:, -1:] = 0.0
            if use_mask:
                response[~mask] = 0.0
            peak = float(response.max())
            assert peak > 0.0
            ys, xs = np.nonzero(response > peak * 0.02)
            order = np.argsort(response[ys, xs])[::-1]
            expected = suppress_min_distance(
                xs[order], ys[order], frame.shape, 3.0, 80
            )
            assert np.array_equal(got, expected)

    def test_workload_rois_match_annotations(self):
        """The conv workload's ROIs are real annotated boxes of the bench
        frame (the scale the tracker actually runs Shi-Tomasi at)."""
        wl = workloads.make_conv_workload()
        assert len(wl.rois) >= 1
        assert wl.product_stack.shape == (3, *wl.rois[0].shape)
        for roi in wl.rois:
            assert roi.shape[0] >= 6 and roi.shape[1] >= 6
            assert roi.base is None  # owns its memory; benches reuse it

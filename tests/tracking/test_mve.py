"""Unit tests for the block-motion MVE tracker (DESIGN.md §12)."""

import numpy as np
import pytest

from repro.detection.detector import Detection
from repro.geometry import Box, iou
from repro.tracking.mve import MVETracker, MVETrackerConfig
from repro.tracking.tracker import ObjectTracker
from repro.vision.block_motion import BlockMotionParams
from repro.vision.artifact_store import (
    BYTES_PER_MB,
    ArtifactStore,
    _PrivateBacking,
    install_store,
)
from repro.vision.pyramid_cache import clip_fingerprint
from repro.video.dataset import make_clip


@pytest.fixture()
def clip():
    return make_clip("highway_surveillance", seed=55, num_frames=40)


def seed_tracker(clip, config=None, frame=0, fingerprint=None):
    ann = clip.annotation(frame)
    detections = tuple(Detection(o.label, o.box, 0.9) for o in ann.objects)
    tracker = MVETracker(
        clip.frame,
        clip.config.frame_width,
        clip.config.frame_height,
        config,
        fingerprint=fingerprint,
    )
    tracker.initialize(frame, detections)
    return tracker, detections


class TestLifecycle:
    def test_seeding_admits_objects_without_features(self, clip):
        tracker, detections = seed_tracker(clip)
        assert tracker.num_objects == len(detections)
        # No features are extracted at seed time; blocks appear per step.
        assert tracker.num_features == 0
        assert tracker.planned_blocks() > 0

    def test_tiny_boxes_skipped(self, clip):
        tracker = MVETracker(clip.frame, 320, 180)
        tracker.initialize(0, [Detection("car", Box(10, 10, 1.0, 1.0), 0.9)])
        assert tracker.num_objects == 0
        assert tracker.planned_blocks() == 0

    def test_track_before_initialize_raises(self, clip):
        tracker = MVETracker(clip.frame, 320, 180)
        with pytest.raises(RuntimeError):
            tracker.track_to(1)

    def test_backwards_tracking_rejected(self, clip):
        tracker, _ = seed_tracker(clip)
        tracker.track_to(5)
        with pytest.raises(ValueError):
            tracker.track_to(5)
        with pytest.raises(ValueError):
            tracker.track_to(3)

    def test_empty_seed_tracks_nothing(self, clip):
        tracker = MVETracker(clip.frame, 320, 180)
        tracker.initialize(0, [])
        step = tracker.track_to(1)
        assert step.detections == ()
        assert step.velocity is None
        assert step.num_features == 0


class TestTracking:
    def test_boxes_follow_objects(self, clip):
        tracker, _ = seed_tracker(clip)
        step = None
        for j in (2, 4, 6):
            step = tracker.track_to(j)
        ann = clip.annotation(6)
        assert step.detections
        overlaps = [
            max((iou(d.box, o.box) for o in ann.objects), default=0.0)
            for d in step.detections
        ]
        assert np.mean(overlaps) > 0.4

    def test_velocity_measured_in_lk_units(self, clip):
        """Eq.3 over block vectors lands in the same px/frame range as LK."""
        tracker, _ = seed_tracker(clip)
        step = tracker.track_to(2)
        assert step.velocity is not None
        assert 1.0 < step.velocity < 6.0
        assert step.num_features > 0
        assert tracker.num_features == step.num_features

    def test_frame_gap_recorded(self, clip):
        tracker, _ = seed_tracker(clip)
        assert tracker.track_to(3).frame_gap == 3
        assert tracker.track_to(5).frame_gap == 2

    def test_departed_objects_dropped(self, clip):
        tracker, _ = seed_tracker(clip)
        initial = tracker.num_objects
        step = None
        for j in range(2, 40, 2):
            step = tracker.track_to(j)
        assert tracker.num_objects <= initial
        for det in step.detections:
            assert det.box.area > 0

    def test_deterministic_replay(self, clip):
        """The tracker is RNG-free: identical runs are identical."""

        def run():
            tracker, _ = seed_tracker(clip)
            return [tracker.track_to(j).detections for j in (2, 4, 6)]

        assert run() == run()

    def test_pyramid_cache_shared_results_identical(self, clip):
        """Pyramids read through the artifact store (built by one
        tracker, served to the next) never change what MVE tracks."""
        direct, _ = seed_tracker(clip)
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        previous = install_store(store)
        try:
            fingerprint = clip_fingerprint(clip)
            builder, _ = seed_tracker(clip, fingerprint=fingerprint)
            built = [builder.track_to(j).detections for j in (2, 4, 6)]
            misses = store.stats()["misses"]
            served, _ = seed_tracker(clip, fingerprint=fingerprint)
            for j, detections in zip((2, 4, 6), built):
                assert direct.track_to(j).detections == detections
                assert served.track_to(j).detections == detections
            assert store.stats()["misses"] == misses  # all store-served
            assert store.stats()["hits"] > 0
        finally:
            install_store(previous)


class TestExtrapolation:
    def test_constant_velocity_coasting_on_match_failure(self):
        """A box that becomes unmatchable coasts on its last velocity."""
        rng = np.random.default_rng(3)
        from repro.vision.image import gaussian_blur

        canvas = gaussian_blur(rng.random((200, 260)), 2.0)
        shift = 3  # px/frame, pure horizontal translation

        def frame(index):
            if index < 2:
                offset = shift * index
                return canvas[20:140, 20 + offset : 180 + offset]
            # Frames >= 2 are destroyed: no block can match.
            return np.zeros((120, 160))

        tracker = MVETracker(frame, 160, 120)
        tracker.initialize(0, [Detection("car", Box(60, 40, 24, 24), 0.9)])
        measured = tracker.track_to(1)
        assert measured.detections[0].box.left == pytest.approx(60 - shift)
        coasted = tracker.track_to(2)
        # No valid block on the destroyed frame: velocity extrapolates.
        assert coasted.detections[0].box.left == pytest.approx(60 - 2 * shift)

    def test_extrapolation_disabled_leaves_box_stale(self):
        rng = np.random.default_rng(3)
        from repro.vision.image import gaussian_blur

        canvas = gaussian_blur(rng.random((200, 260)), 2.0)

        def frame(index):
            if index < 2:
                offset = 3 * index
                return canvas[20:140, 20 + offset : 180 + offset]
            return np.zeros((120, 160))

        tracker = MVETracker(frame, 160, 120, MVETrackerConfig(extrapolate=False))
        tracker.initialize(0, [Detection("car", Box(60, 40, 24, 24), 0.9)])
        tracker.track_to(1)
        stale = tracker.track_to(2)
        assert stale.detections[0].box.left == pytest.approx(60 - 3)


class TestCostScaling:
    def test_planned_blocks_scale_with_box_area(self, clip):
        small, _ = seed_tracker(
            clip, MVETrackerConfig(block=BlockMotionParams(block_size=8))
        )
        tracker = MVETracker(clip.frame, 320, 180)
        tracker.initialize(
            0, [Detection("bus", Box(40, 40, 120, 80), 0.9)]
        )
        expected = (120 // 8) * (80 // 8)
        assert abs(tracker.planned_blocks() - expected) <= 2 * (120 // 8 + 80 // 8)

    def test_much_cheaper_than_lk_on_same_content(self, clip):
        """Sanity: per-step numpy work is far below LK's (not a timed bench)."""
        ann = clip.annotation(0)
        detections = tuple(Detection(o.label, o.box, 0.9) for o in ann.objects)
        lk = ObjectTracker(clip.frame, 320, 180, seed=1)
        lk.initialize(0, detections)
        mve = MVETracker(clip.frame, 320, 180)
        mve.initialize(0, detections)
        # The MVE tier matches ~an order of magnitude fewer "units" than
        # LK samples: blocks ~ area/64 vs features * window * iterations.
        assert mve.planned_blocks() <= 8 * lk.num_features

"""load_pyramid: the artifact-store read-through, its counters, tier sharing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.detector import Detection
from repro.tracking.mve import MVETracker, MVETrackerConfig
from repro.tracking.tracker import ObjectTracker, TrackerConfig
from repro.video.dataset import make_clip
from repro.video.framestore import scene_fingerprint
from repro.vision.artifact_store import (
    BYTES_PER_MB,
    ArtifactStore,
    _PrivateBacking,
    install_store,
)
from repro.vision.optical_flow import FramePyramid
from repro.vision.pyramid_cache import clip_fingerprint, counters_snapshot, load_pyramid


def _frame(seed: int, shape: tuple[int, int] = (48, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


def _store(mb: int = 32) -> ArtifactStore:
    return ArtifactStore(_PrivateBacking(mb * BYTES_PER_MB))


def _assert_equal_to_direct(served: FramePyramid, frame: np.ndarray, levels: int) -> None:
    direct = FramePyramid(frame, levels)
    assert served.levels == direct.levels
    for level in range(direct.levels):
        assert np.array_equal(served.images[level], direct.images[level])
        sx, sy = served.gradients(level)
        dx, dy = direct.gradients(level)
        assert np.array_equal(sx, dx)
        assert np.array_equal(sy, dy)


@pytest.fixture()
def clip():
    return make_clip("highway_surveillance", seed=55, num_frames=24)


class TestStoreReadThrough:
    def test_second_cache_is_served_without_building(self):
        store = _store()
        frame = _frame(10)
        built = load_pyramid(lambda _: frame, 0, 3, "fp", store)
        assert store.stats()["misses"] == 1
        calls = []

        def provider(index):
            calls.append(index)
            return frame

        served = load_pyramid(provider, 0, 3, "fp", store)
        assert calls == []
        assert store.stats()["hits"] == 1
        _assert_equal_to_direct(built, frame, 3)
        _assert_equal_to_direct(served, frame, 3)
        # Both callers read the one canonical stored copy.
        assert np.shares_memory(built.images[0], served.images[0])

    def test_store_served_entries_arrive_warmed(self):
        # With a store in play the builder publishes warmed artifacts, so
        # the reader's gradients come from shared bytes, not a recompute.
        store = _store()
        load_pyramid(lambda _: _frame(11), 0, 2, "fp", store)
        artifact = store.get("fp", 0, 2, True)
        assert artifact is not None and artifact.warmed

    def test_disabled_store_falls_back_to_local_build(self):
        store = _store(mb=0)
        frame = _frame(12)
        pyramid = load_pyramid(lambda _: frame, 0, 2, "fp", store)
        _assert_equal_to_direct(pyramid, frame, 2)
        stats = store.stats()
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0

    def test_default_store_is_resolved_at_call_time(self):
        overlay = _store()
        previous = install_store(overlay)
        try:
            load_pyramid(lambda _: _frame(13), 0, 2, "fp")
        finally:
            install_store(previous)
        assert overlay.stats()["misses"] == 1
        assert overlay.get("fp", 0, 2, True) is not None


class TestPrefixServing:
    def test_deeper_request_misses(self):
        """There is no prefix serving: every depth is its own store key,
        so neither a deeper nor a shallower request reuses an entry."""
        store = _store()
        frame = _frame(3)
        load_pyramid(lambda _: frame, 0, 2, "fp", store)
        deep = load_pyramid(lambda _: frame, 0, 4, "fp", store)
        shallow = load_pyramid(lambda _: frame, 0, 1, "fp", store)
        assert store.stats()["hits"] == 0
        assert store.stats()["misses"] == 3
        _assert_equal_to_direct(deep, frame, 4)
        _assert_equal_to_direct(shallow, frame, 1)


class TestCounters:
    def test_module_totals_snapshot_diffs(self):
        """``hits`` counts store-served pyramids, ``misses`` built ones —
        with or without a store."""
        store = _store()
        before = counters_snapshot()
        load_pyramid(lambda _: _frame(5), 0, 2, "fp", store)
        load_pyramid(lambda _: _frame(5), 0, 2, "fp", store)
        load_pyramid(lambda _: _frame(6), 1, 2, None)
        after = counters_snapshot()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] - before["misses"] == 2
        assert set(after) == {"hits", "misses"}


class TestClipFingerprint:
    def test_generated_clip_uses_its_scene_fingerprint(self, clip):
        assert clip_fingerprint(clip) == scene_fingerprint(clip.scene)

    def test_exported_clip_has_none(self, tmp_path):
        # An exported clip's scene shim has no (config, seed) identity.
        from repro.video.export import ExportedClip, export_clip

        short = make_clip("highway_surveillance", seed=55, num_frames=3)
        path = export_clip(short, tmp_path / "clip")
        assert clip_fingerprint(ExportedClip(path)) is None


def _detections(clip, frame: int = 0):
    return tuple(
        Detection(obj.label, obj.box, 0.9) for obj in clip.annotation(frame).objects
    )


class TestTierTransition:
    """An lk<->mve tier transition on the same frame reads the pyramid the
    other tier published, when both tiers use the same pyramid depth (the
    defaults do)."""

    def test_mve_after_lk_hits_shared_cache(self, clip):
        store = _store()
        previous = install_store(store)
        try:
            fingerprint = clip_fingerprint(clip)
            width = clip.config.frame_width
            height = clip.config.frame_height
            lk = ObjectTracker(
                clip.frame, width, height, TrackerConfig(), fingerprint=fingerprint
            )
            lk.initialize(0, _detections(clip))
            misses_after_lk = store.stats()["misses"]
            mve = MVETracker(
                clip.frame, width, height, MVETrackerConfig(), fingerprint=fingerprint
            )
            mve.initialize(0, _detections(clip))
        finally:
            install_store(previous)
        assert store.stats()["misses"] == misses_after_lk
        assert store.stats()["hits"] >= 1

    def test_shared_cache_results_identical_across_tiers(self, clip):
        width = clip.config.frame_width
        height = clip.config.frame_height

        def run_pair(fingerprint):
            lk = ObjectTracker(
                clip.frame, width, height, TrackerConfig(),
                seed=0, fingerprint=fingerprint,
            )
            lk.initialize(0, _detections(clip))
            lk_steps = [lk.track_to(j).detections for j in (2, 4)]
            mve = MVETracker(
                clip.frame, width, height, MVETrackerConfig(), fingerprint=fingerprint
            )
            mve.initialize(4, _detections(clip, 4))
            mve_steps = [mve.track_to(j).detections for j in (6, 8)]
            return lk_steps, mve_steps

        store = _store()
        previous = install_store(store)
        try:
            with_store = run_pair(clip_fingerprint(clip))
        finally:
            install_store(previous)
        without_store = run_pair(None)
        assert with_store == without_store
        assert store.stats()["hits"] > 0

"""Derived-artifact store: pack format, key scheme, tiers, process default.

The spawn-crossing worker is a module-level function so the spawn start
method can pickle it by reference and reimport it inside the child
process (same pattern as ``tests/video/test_framestore_shared.py``).
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vision import artifact_store as artifact_store_mod
from repro.vision.artifact_store import (
    BYTES_PER_MB,
    ArtifactStore,
    PyramidArtifact,
    _PrivateBacking,
    attach_shared,
    configure_default,
    create_shared,
    default_store,
    install_store,
    pack_artifact,
    shared_store_available,
    unpack_artifact,
)
from repro.vision.optical_flow import FramePyramid
from repro.vision.pyramid_cache import load_pyramid


def _frame(seed: int, shape: tuple[int, int] = (48, 64)) -> np.ndarray:
    return np.random.default_rng(seed).random(shape)


def _assert_pyramids_equal(left: FramePyramid, right: FramePyramid) -> None:
    assert left.levels == right.levels
    for level in range(left.levels):
        assert np.array_equal(left.images[level], right.images[level])
        lx, ly = left.gradients(level)
        rx, ry = right.gradients(level)
        assert np.array_equal(lx, rx)
        assert np.array_equal(ly, ry)


class TestPackFormat:
    def test_warmed_roundtrip_is_bit_identical(self):
        pyramid = FramePyramid(_frame(1), 3)
        artifact = PyramidArtifact.from_pyramid(pyramid, warmed=True)
        unpacked = unpack_artifact(pack_artifact(artifact))
        assert unpacked.warmed and unpacked.levels == artifact.levels
        for level in range(artifact.levels):
            assert np.array_equal(unpacked.images[level], artifact.images[level])
            for axis in (0, 1):
                assert np.array_equal(
                    unpacked.gradients[level][axis], artifact.gradients[level][axis]
                )

    def test_lazy_roundtrip_has_no_gradients(self):
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(2), 2), warmed=False)
        unpacked = unpack_artifact(pack_artifact(artifact))
        assert not unpacked.warmed
        assert unpacked.gradients is None
        assert unpacked.levels == artifact.levels

    def test_odd_shapes_survive_alignment_padding(self):
        # 17x23 planes are not multiples of the 16-byte alignment; the
        # pack cursor must pad between planes without corrupting any.
        pyramid = FramePyramid(_frame(3, shape=(17, 23)), 1)
        artifact = PyramidArtifact.from_pyramid(pyramid, warmed=True)
        unpacked = unpack_artifact(pack_artifact(artifact))
        assert np.array_equal(unpacked.images[0], artifact.images[0])
        assert np.array_equal(unpacked.gradients[0][0], artifact.gradients[0][0])

    def test_unpack_is_zero_copy_views(self):
        buffer = pack_artifact(
            PyramidArtifact.from_pyramid(FramePyramid(_frame(4), 2), warmed=True)
        )
        unpacked = unpack_artifact(buffer)
        for plane in unpacked.images + tuple(g for pair in unpacked.gradients for g in pair):
            assert np.shares_memory(plane, buffer)

    def test_packing_is_deterministic(self):
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(5), 3), warmed=True)
        assert np.array_equal(pack_artifact(artifact), pack_artifact(artifact))

    def test_unknown_version_rejected(self):
        buffer = pack_artifact(
            PyramidArtifact.from_pyramid(FramePyramid(_frame(6), 1), warmed=False)
        )
        import pickle
        import struct

        bad_header = pickle.dumps((99, False, 1, ()), protocol=pickle.HIGHEST_PROTOCOL)
        bad = np.zeros(8 + len(bad_header) + 64, dtype=np.uint8)
        struct.pack_into("<Q", bad, 0, len(bad_header))
        bad[8 : 8 + len(bad_header)] = np.frombuffer(bad_header, dtype=np.uint8)
        with pytest.raises(ValueError, match="version"):
            unpack_artifact(bad)

    def test_to_pyramid_reconstructs_without_rebuild(self):
        pyramid = FramePyramid(_frame(7), 3)
        pyramid.warm_gradients()
        artifact = unpack_artifact(
            pack_artifact(PyramidArtifact.from_pyramid(pyramid, warmed=True))
        )
        _assert_pyramids_equal(artifact.to_pyramid(), pyramid)


class TestArtifactStoreSemantics:
    def _store(self, mb: int = 64) -> ArtifactStore:
        return ArtifactStore(_PrivateBacking(mb * BYTES_PER_MB))

    def test_get_put_roundtrip(self):
        store = self._store()
        assert store.get("fp", 0, 3, True) is None
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(8), 3), warmed=True)
        canonical = store.put("fp", 0, 3, True, artifact)
        served = store.get("fp", 0, 3, True)
        for level in range(artifact.levels):
            assert np.array_equal(served.images[level], artifact.images[level])
            assert np.array_equal(canonical.images[level], artifact.images[level])

    def test_key_separates_levels_warm_and_fingerprint(self):
        store = self._store()
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(9), 3), warmed=True)
        store.put("fp", 0, 3, True, artifact)
        assert store.get("fp", 0, 2, True) is None
        assert store.get("fp", 0, 3, False) is None
        assert store.get("other", 0, 3, True) is None
        assert store.get("fp", 1, 3, True) is None
        assert store.get("fp", 0, 3, True) is not None

    def test_first_insert_wins_returns_canonical(self):
        store = self._store()
        first = PyramidArtifact.from_pyramid(FramePyramid(_frame(10), 2), warmed=False)
        second = PyramidArtifact.from_pyramid(FramePyramid(_frame(11), 2), warmed=False)
        store.put("fp", 0, 2, False, first)
        served = store.put("fp", 0, 2, False, second)
        # The racing put converges on the earlier insert's bytes.
        assert np.array_equal(served.images[0], first.images[0])

    def test_disabled_store_returns_callers_artifact(self):
        store = self._store(mb=0)
        assert not store.enabled
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(12), 2), warmed=False)
        assert store.put("fp", 0, 2, False, artifact) is artifact
        assert store.get("fp", 0, 2, False) is None

    def test_oversized_artifact_not_stored(self):
        store = ArtifactStore(_PrivateBacking(1024))  # 1 KiB: nothing fits
        artifact = PyramidArtifact.from_pyramid(FramePyramid(_frame(13), 2), warmed=True)
        served = store.put("fp", 0, 2, True, artifact)
        assert np.array_equal(served.images[0], artifact.images[0])
        assert store.stats()["entries"] == 0


class TestProcessDefault:
    def test_unbound_cache_never_touches_a_store(self):
        # No fingerprint means no content address: even with a live
        # default store the pyramid is built locally.
        overlay = ArtifactStore(_PrivateBacking(4 * BYTES_PER_MB))
        previous = install_store(overlay)
        try:
            load_pyramid(lambda _: _frame(20), 0, 2, None)
            stats = overlay.stats()
            assert stats["hits"] == stats["misses"] == stats["entries"] == 0
        finally:
            install_store(previous)

    def test_install_overlay_and_restore(self):
        overlay = ArtifactStore(_PrivateBacking(4 * BYTES_PER_MB))
        previous = install_store(overlay)
        try:
            assert default_store() is overlay
        finally:
            install_store(previous)
        assert default_store() is not overlay

    def test_configure_default_sets_budget(self):
        before = default_store().max_bytes
        try:
            store = configure_default(2 * BYTES_PER_MB)
            assert store.max_bytes == 2 * BYTES_PER_MB
            assert default_store().enabled
        finally:
            configure_default(before)


class TestStoreServedEqualsDirect:
    """ISSUE 10 pin: store-served pyramids/gradients are np.array_equal
    to direct FramePyramid construction — the store changes when work
    happens, never what the arrays are."""

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=8, max_value=56),
        width=st.integers(min_value=8, max_value=56),
        levels=st.integers(min_value=1, max_value=4),
        warmed=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_roundtrip_matches_direct_build(self, height, width, levels, warmed, seed):
        frame = _frame(seed, shape=(height, width))
        direct = FramePyramid(frame, levels)
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        artifact = PyramidArtifact.from_pyramid(FramePyramid(frame, levels), warmed)
        store.put("fp", 0, levels, warmed, artifact)
        served = store.get("fp", 0, levels, warmed).to_pyramid()
        # Small frames clamp the level count identically on both paths.
        _assert_pyramids_equal(served, direct)

    @settings(max_examples=15, deadline=None)
    @given(
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_cache_readthrough_matches_direct_build(self, levels, seed):
        frame = _frame(seed)
        store = ArtifactStore(_PrivateBacking(32 * BYTES_PER_MB))
        load_pyramid(lambda _: frame, 0, levels, "fp", store)
        calls = []

        def provider(index):
            calls.append(index)
            return frame

        served = load_pyramid(provider, 0, levels, "fp", store)
        assert calls == []  # fully store-served, never rebuilt
        assert store.stats()["hits"] == 1
        _assert_pyramids_equal(served, FramePyramid(frame, levels))


def _pyramids_via_shared_store(token, fingerprint, num_frames, levels, queue):
    """Spawn worker: serve pyramids through an attached shared store."""
    import numpy as np

    from repro.vision.artifact_store import attach_shared
    from repro.vision.pyramid_cache import load_pyramid

    store = attach_shared(token)
    payload = []
    for index in range(num_frames):
        pyramid = load_pyramid(
            lambda i: np.random.default_rng(1000 + i).random((40, 56)),
            index,
            levels,
            fingerprint,
            store,
        )
        planes = [np.asarray(img).copy() for img in pyramid.images]
        grads = [
            (np.asarray(gx).copy(), np.asarray(gy).copy())
            for gx, gy in (pyramid.gradients(lv) for lv in range(pyramid.levels))
        ]
        payload.append((planes, grads))
    stats = store.stats()
    queue.put((payload, stats["misses"], stats["hits"]))


@pytest.mark.skipif(
    not shared_store_available(),
    reason="cross-process store needs POSIX shared memory + fcntl",
)
class TestCrossProcessTier:
    def test_spawn_workers_share_pyramids_and_match_direct(self):
        num_frames, levels = 4, 3
        store = create_shared(64 * BYTES_PER_MB)
        try:
            ctx = mp.get_context("spawn")
            queue = ctx.Queue()
            procs = [
                ctx.Process(
                    target=_pyramids_via_shared_store,
                    args=(store.token, "xp-fp", num_frames, levels, queue),
                )
                for _ in range(2)
            ]
            for proc in procs:
                proc.start()
            outputs = [queue.get(timeout=120) for _ in procs]
            for proc in procs:
                proc.join(timeout=30)
            for payload, _, _ in outputs:
                assert len(payload) == num_frames
                for index, (planes, grads) in enumerate(payload):
                    direct = FramePyramid(
                        np.random.default_rng(1000 + index).random((40, 56)), levels
                    )
                    assert len(planes) == direct.levels
                    for level in range(direct.levels):
                        assert np.array_equal(planes[level], direct.images[level])
                        dx, dy = direct.gradients(level)
                        assert np.array_equal(grads[level][0], dx)
                        assert np.array_equal(grads[level][1], dy)
            # Build-once fleet-wide: total misses across both workers is
            # the unique pyramid count; the compute lease made the racing
            # worker wait for the first builder's fill.
            total_misses = sum(misses for _, misses, _ in outputs)
            assert total_misses == num_frames
            assert store.stats()["entries"] == num_frames
        finally:
            store.close()

    def test_attach_shares_entries_with_owner(self):
        store = create_shared(16 * BYTES_PER_MB)
        try:
            artifact = PyramidArtifact.from_pyramid(
                FramePyramid(_frame(21), 2), warmed=True
            )
            store.put("fp", 0, 2, True, artifact)
            reader = attach_shared(store.token)
            served = reader.get("fp", 0, 2, True)
            assert served is not None
            _assert_pyramids_equal(served.to_pyramid(), artifact.to_pyramid())
            assert reader.owner is False and store.owner is True
        finally:
            store.close()

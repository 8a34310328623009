"""Unit tests for the frame renderer."""

import numpy as np
import pytest

from repro.video.dataset import make_clip
from repro.video.render import FrameRenderer, make_background, make_object_texture
from repro.video.scene import Scene
from repro.video.library import make_scenario


@pytest.fixture(scope="module")
def clip():
    return make_clip("highway_surveillance", seed=21, num_frames=60)


class TestTextures:
    def test_texture_deterministic(self):
        a = make_object_texture(123, contrast=0.8)
        b = make_object_texture(123, contrast=0.8)
        assert np.array_equal(a, b)

    def test_texture_varies_by_seed(self):
        a = make_object_texture(1, contrast=0.8)
        b = make_object_texture(2, contrast=0.8)
        assert not np.array_equal(a, b)

    def test_texture_in_unit_range(self):
        tex = make_object_texture(5, contrast=1.0)
        assert tex.min() >= 0.0
        assert tex.max() <= 1.0

    def test_background_deterministic(self):
        assert np.array_equal(make_background(7, 0.25), make_background(7, 0.25))


class TestFrames:
    def test_frame_shape_and_dtype(self, clip):
        frame = clip.frame(0)
        assert frame.shape == (180, 320)
        assert frame.dtype == np.float32
        assert frame.min() >= 0.0
        assert frame.max() <= 1.0

    def test_frame_deterministic_across_renderers(self, clip):
        other = FrameRenderer(clip.scene)
        assert np.array_equal(clip.frame(5), other.render(5))

    def test_cache_returns_same_array(self, clip):
        assert clip.frame(3) is clip.frame(3)

    def test_objects_visible_in_frame(self, clip):
        """Object regions must differ from the pure background."""
        frame = np.asarray(clip.frame(0), dtype=np.float64)
        background = FrameRenderer(clip.scene)._render_background(0)
        ann = clip.annotation(0)
        assert len(ann.objects) > 0
        for obj in ann.objects:
            rows, cols = obj.box.pixel_slice(frame.shape)
            diff = np.abs(frame[rows, cols] - background[rows, cols]).mean()
            assert diff > 0.02, f"object {obj.object_id} invisible"

    def test_box_corners_show_background(self, clip):
        """The elliptical silhouette leaves box corners as background."""
        frame = np.asarray(clip.frame(0), dtype=np.float64)
        background = FrameRenderer(clip.scene)._render_background(0)
        ann = clip.annotation(0)
        # Find an unoccluded object fully inside the frame.
        for obj in ann.objects:
            box = obj.box
            if box.width < 25 or box.left < 1 or box.right > 318:
                continue
            others = [o for o in ann.objects if o.object_id != obj.object_id]
            if any(box.intersection(o.box).area > 0 for o in others):
                continue
            # Corner pixel of the box should still be background.
            y = int(box.top) + 1
            x = int(box.left) + 1
            assert abs(frame[y, x] - background[y, x]) < 0.1
            return
        pytest.skip("no unoccluded object in this frame")

    def test_moving_object_texture_translates(self):
        """Texture must move with the object for optical flow to work."""
        clip = make_clip("highway_surveillance", seed=33, num_frames=10,
                         sensor_noise=0.0)
        ann0, ann1 = clip.annotation(0), clip.annotation(1)
        common = set(o.object_id for o in ann0.objects) & set(
            o.object_id for o in ann1.objects
        )
        assert common
        oid = common.pop()
        box0 = next(o.box for o in ann0.objects if o.object_id == oid)
        box1 = next(o.box for o in ann1.objects if o.object_id == oid)
        dx = box1.left - box0.left
        frame0 = np.asarray(clip.frame(0), dtype=np.float64)
        frame1 = np.asarray(clip.frame(1), dtype=np.float64)
        # Sample the object interior in both frames at corresponding points.
        from repro.vision.image import sample_bilinear

        cx, cy = box0.center
        xs = np.linspace(cx - 4, cx + 4, 9)
        ys = np.full(9, cy)
        patch0 = sample_bilinear(frame0, xs, ys)
        patch1 = sample_bilinear(frame1, xs + dx, ys + (box1.top - box0.top))
        assert np.abs(patch0 - patch1).mean() < 0.06

    def test_sensor_noise_applied(self):
        noisy = make_clip("boat", seed=3, num_frames=4, sensor_noise=0.05)
        clean = make_clip("boat", seed=3, num_frames=4, sensor_noise=0.0)
        diff = np.abs(
            np.asarray(noisy.frame(0), dtype=np.float64)
            - np.asarray(clean.frame(0), dtype=np.float64)
        )
        assert 0.005 < diff.mean() < 0.1

    def test_cache_eviction(self):
        scene = Scene(make_scenario("boat", num_frames=40), seed=2)
        renderer = FrameRenderer(scene, cache_size=4)
        for i in range(10):
            renderer.render(i)
        assert len(renderer._cache) <= 4

    def test_cache_eviction_is_true_lru(self):
        """A hit must refresh recency: re-reading frame 0 keeps it cached
        past the next eviction (the seed dropped by insertion order)."""
        scene = Scene(make_scenario("boat", num_frames=40), seed=2)
        renderer = FrameRenderer(scene, cache_size=4)
        for i in range(4):
            renderer.render(i)
        renderer.render(0)  # hit: 0 becomes most-recent, 1 is now LRU
        renderer.render(4)  # evicts exactly one entry: 1, not 0
        assert 0 in renderer._cache
        assert 1 not in renderer._cache
        assert len(renderer._cache) == 4

    def test_second_pass_all_hits_with_large_cache(self):
        scene = Scene(make_scenario("boat", num_frames=10), seed=2)
        renderer = FrameRenderer(scene, cache_size=16)
        for i in range(10):
            renderer.render(i)
        misses = renderer.cache_misses
        for i in range(10):
            renderer.render(i)
        assert renderer.cache_misses == misses
        assert renderer.cache_hits >= 10

    def test_cache_size_must_be_positive(self):
        scene = Scene(make_scenario("boat", num_frames=4), seed=2)
        with pytest.raises(ValueError, match="cache_size"):
            FrameRenderer(scene, cache_size=0)


class TestCacheCounters:
    def test_hit_miss_counters(self):
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene, cache_size=8)
        renderer.render(0)
        renderer.render(0)
        renderer.render(1)
        assert renderer.cache_misses == 2
        assert renderer.cache_hits == 1

    def test_counters_recorded_via_obs(self):
        from repro.obs import InMemorySink, Telemetry

        obs = Telemetry(InMemorySink())
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene, cache_size=8)
        renderer.set_obs(obs)
        renderer.render(0)
        renderer.render(0)
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert counters["render.cache_miss"] == 1
        assert counters["render.cache_hit"] == 1

    def test_detaching_obs_keeps_plain_counters(self):
        scene = Scene(make_scenario("boat", num_frames=8), seed=2)
        renderer = FrameRenderer(scene, cache_size=8)
        renderer.set_obs(None)
        renderer.render(0)
        renderer.render(0)
        assert renderer.cache_hits == 1

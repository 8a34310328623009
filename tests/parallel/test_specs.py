"""Picklability and reconstruction fidelity of the sweep work units."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.parallel import ClipSpec, MethodSpec, ShardResult, ShardSpec
from repro.video.dataset import make_clip


class TestClipSpec:
    def test_round_trip_rebuilds_identical_clip(self):
        clip = make_clip("intersection", seed=11, num_frames=12)
        spec = ClipSpec.from_clip(clip)
        rebuilt = spec.build()
        assert rebuilt.name == clip.name
        assert rebuilt.num_frames == clip.num_frames
        for index in (0, 5, 11):
            np.testing.assert_array_equal(rebuilt.frame(index), clip.frame(index))
        for index in range(clip.num_frames):
            a, b = clip.annotation(index), rebuilt.annotation(index)
            assert [o.box.as_tuple() for o in a.objects] == [
                o.box.as_tuple() for o in b.objects
            ]

    def test_spec_is_hashable(self):
        clip = make_clip("intersection", seed=11, num_frames=4)
        spec = ClipSpec.from_clip(clip)
        assert spec in {spec}
        assert hash(spec) == hash(ClipSpec.from_clip(clip))


class TestPickling:
    def _shard(self, **overrides) -> ShardSpec:
        clip = make_clip("residential", seed=3, num_frames=6)
        fields = dict(
            index=2,
            method=MethodSpec(
                name="marlin-512", config=PipelineConfig(detector_seed=4)
            ),
            clip=ClipSpec.from_clip(clip),
            clip_index=0,
        )
        fields.update(overrides)
        return ShardSpec(**fields)

    def test_shard_spec_round_trips(self):
        spec = self._shard(keep_run=True, collect_obs=True, attempt=1)
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.method.config.detector_seed == 4

    def test_shard_result_round_trips(self):
        result = ShardResult(
            index=0,
            method="adavp",
            clip_name="residential-3",
            clip_index=0,
            accuracy=0.5,
            mean_f1=0.6,
            error=None,
        )
        restored = pickle.loads(pickle.dumps(result))
        assert restored.ok
        assert restored.accuracy == 0.5

    def test_failed_result_is_not_ok(self):
        result = ShardResult(
            index=0, method="adavp", clip_name="x", clip_index=0, error="boom"
        )
        assert not result.ok


class TestShardSpecDefaults:
    def test_grid_defaults(self):
        spec = ShardSpec(
            index=0,
            method=MethodSpec(name="adavp"),
            clip=ClipSpec.from_clip(make_clip("intersection", seed=1, num_frames=2)),
            clip_index=0,
        )
        assert spec.alpha == pytest.approx(0.7)
        assert spec.iou_threshold == pytest.approx(0.5)
        assert not spec.keep_run
        assert not spec.collect_obs
        assert spec.attempt == 0


class TestStoreConfig:
    def test_validation(self):
        from repro.parallel import StoreConfig
        from repro.video.framestore import StoreToken

        with pytest.raises(ValueError, match="unknown store mode"):
            StoreConfig(mode="global", budget_bytes=1)
        with pytest.raises(ValueError, match="needs a token"):
            StoreConfig(mode="shared", budget_bytes=1)
        with pytest.raises(ValueError, match="non-negative"):
            StoreConfig(mode="private", budget_bytes=-1)
        token = StoreToken(control="seg", lock_path="/tmp/x.lock")
        cfg = StoreConfig(mode="shared", budget_bytes=64, token=token)
        assert cfg.token is token

    def test_round_trips_through_pickle_on_shard_spec(self):
        from repro.parallel import StoreConfig
        from repro.video.framestore import StoreToken

        clip = make_clip("residential", seed=3, num_frames=6)
        spec = ShardSpec(
            index=0,
            method=MethodSpec(name="adavp"),
            clip=ClipSpec.from_clip(clip),
            clip_index=0,
            store=StoreConfig(
                mode="shared",
                budget_bytes=4096,
                token=StoreToken(control="reprofs_1_ab", lock_path="/tmp/a.lock"),
            ),
        )
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.store.token.control == "reprofs_1_ab"


class TestStoreBudgetValidation:
    def _spec(self, mb):
        clip = make_clip("intersection", seed=1, num_frames=2)
        return ClipSpec.from_clip(clip, frame_store_mb=mb)

    def test_uniform_budget_accepted(self):
        from repro.parallel import validate_store_budgets

        assert validate_store_budgets([self._spec(32), self._spec(32)]) == 32
        assert validate_store_budgets([self._spec(None), self._spec(None)]) is None
        # None means "no opinion" and never conflicts with a real budget.
        assert validate_store_budgets([self._spec(None), self._spec(16)]) == 16

    def test_mixed_budgets_rejected(self):
        from repro.parallel import validate_store_budgets

        with pytest.raises(ValueError, match="conflicting frame_store_mb"):
            validate_store_budgets([self._spec(32), self._spec(64)])

    def test_build_no_longer_reconfigures_the_store(self):
        # Regression: ClipSpec.build() used to call configure_default per
        # clip, silently re-budgeting (and possibly evicting) the
        # process-wide store mid-sweep.  Budgets are applied exactly once
        # per worker via StoreConfig now.
        from repro.video.framestore import default_store

        before = default_store().max_bytes
        self._spec(7).build()
        assert default_store().max_bytes == before


class TestArtifactStoreBudgetValidation:
    """The artifact-store budget rides the same ClipSpec/validation path
    as the frame store's, selected via the ``attr`` parameter."""

    def _spec(self, frame_mb=None, artifact_mb=None):
        clip = make_clip("intersection", seed=1, num_frames=2)
        return ClipSpec.from_clip(
            clip, frame_store_mb=frame_mb, artifact_store_mb=artifact_mb
        )

    def test_from_clip_carries_artifact_budget(self):
        assert self._spec(artifact_mb=96).artifact_store_mb == 96
        assert self._spec().artifact_store_mb is None

    def test_budgets_validated_independently(self):
        from repro.parallel import validate_store_budgets

        specs = [
            self._spec(frame_mb=32, artifact_mb=64),
            self._spec(frame_mb=32, artifact_mb=128),
        ]
        # Frame budgets agree; only the artifact attr conflicts.
        assert validate_store_budgets(specs) == 32
        with pytest.raises(ValueError, match="conflicting artifact_store_mb"):
            validate_store_budgets(specs, attr="artifact_store_mb")

    def test_uniform_artifact_budget_accepted(self):
        from repro.parallel import validate_store_budgets

        specs = [self._spec(artifact_mb=None), self._spec(artifact_mb=256)]
        assert validate_store_budgets(specs, attr="artifact_store_mb") == 256

    def test_artifact_store_config_round_trips_on_shard_spec(self):
        from repro.parallel import StoreConfig
        from repro.video.framestore import StoreToken

        spec = ShardSpec(
            index=0,
            method=MethodSpec(name="adavp"),
            clip=self._spec(artifact_mb=64),
            clip_index=0,
            artifact_store=StoreConfig(
                mode="shared",
                budget_bytes=8192,
                token=StoreToken(control="reproas_1_cd", lock_path="/tmp/b.lock"),
            ),
        )
        restored = pickle.loads(pickle.dumps(spec))
        assert restored == spec
        assert restored.artifact_store.token.control == "reproas_1_cd"

"""Sweep engine: determinism, failure isolation, obs funneling, progress.

The worker-crash runners below are module-level functions so the spawn
start method can pickle them by reference and reimport them inside the
worker process.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.workloads import quick_suite
from repro.obs import InMemorySink, Telemetry
from repro.parallel import SweepEngine, run_shard, run_sweep
from repro.video.dataset import VideoSuite

_METHODS = ("adavp", "mpdt-320")


def _small_suite(frames: int = 48, clips: int | None = None) -> VideoSuite:
    suite = quick_suite(frames=frames)
    if clips is not None:
        suite = VideoSuite(name=suite.name, clips=suite.clips[:clips])
    return suite


def flaky_runner(spec, clip=None, obs=None):
    """Raises on the first attempt of one cell, then behaves."""
    if spec.method.name == "mpdt-320" and spec.clip_index == 0 and spec.attempt == 0:
        raise RuntimeError("injected shard crash")
    return run_shard(spec, clip=clip, obs=obs)


def dead_runner(spec, clip=None, obs=None):
    """One method fails every attempt."""
    if spec.method.name == "mpdt-320":
        raise RuntimeError("always dead")
    return run_shard(spec, clip=clip, obs=obs)


def hard_crash_runner(spec, clip=None, obs=None):
    """Kills the worker process outright on the first attempt of one cell —
    the BrokenProcessPool path, not a catchable exception."""
    if spec.method.name == "mpdt-320" and spec.attempt == 0:
        os._exit(17)
    return run_shard(spec, clip=clip, obs=obs)


class TestValidation:
    def test_empty_suite_raises(self):
        empty = VideoSuite(name="empty", clips=[])
        with pytest.raises(ValueError, match="empty"):
            run_sweep(["adavp"], empty)

    def test_no_methods_raises(self):
        with pytest.raises(ValueError, match="no methods"):
            run_sweep([], _small_suite(frames=12))

    def test_unknown_method_raises_key_error(self):
        with pytest.raises(KeyError, match="unknown method 'bogus'"):
            run_sweep(["bogus"], _small_suite(frames=12))

    def test_bad_jobs_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            SweepEngine(jobs=0)

    def test_method_kwargs_for_absent_method_raises(self):
        with pytest.raises(KeyError, match="not in sweep"):
            run_sweep(
                ["adavp"],
                _small_suite(frames=12),
                method_kwargs={"mpdt-320": {}},
            )


class TestSequentialPath:
    def test_matches_run_method_on_suite(self):
        from repro.experiments.runners import run_method_on_suite

        suite = _small_suite()
        sweep = run_sweep(_METHODS, suite, jobs=1)
        for name in _METHODS:
            direct = run_method_on_suite(name, suite)
            assert sweep.results[name].per_video_accuracy == direct.per_video_accuracy
            assert sweep.results[name].per_video_mean_f1 == direct.per_video_mean_f1

    def test_progress_callback_sees_every_shard_in_grid_order(self):
        suite = _small_suite(frames=24)
        events = []
        run_sweep(
            _METHODS,
            suite,
            jobs=1,
            progress=lambda done, total, r: events.append((done, total, r.index)),
        )
        total = len(_METHODS) * len(suite)
        assert [e[0] for e in events] == list(range(1, total + 1))
        assert all(e[1] == total for e in events)
        assert [e[2] for e in events] == list(range(total))

    def test_keep_runs_in_suite_order(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(["adavp"], suite, jobs=1, keep_runs=True)
        runs = sweep.results["adavp"].runs
        assert [r.clip_name for r in runs] == [c.name for c in suite]


class TestFailureIsolation:
    def test_flaky_shard_is_retried_and_result_is_clean(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(_METHODS, suite, jobs=1, shard_runner=flaky_runner)
        assert sweep.ok
        assert sweep.retried_shards == 1
        clean = run_sweep(_METHODS, suite, jobs=1)
        assert (
            sweep.results["mpdt-320"].per_video_accuracy
            == clean.results["mpdt-320"].per_video_accuracy
        )

    def test_dead_method_reported_without_sinking_the_sweep(self):
        suite = _small_suite(frames=24)
        sweep = run_sweep(_METHODS, suite, jobs=1, shard_runner=dead_runner)
        assert not sweep.ok
        assert "adavp" in sweep.results
        assert "mpdt-320" not in sweep.results
        assert len(sweep.failures) == len(suite)
        failure = sweep.failures[0]
        assert failure.method == "mpdt-320"
        assert failure.attempts == 2
        assert "always dead" in failure.error
        assert "FAILED mpdt-320" in sweep.summary()
        with pytest.raises(RuntimeError, match="shard\\(s\\) failed"):
            sweep.raise_if_failed()

    def test_worker_exception_in_pool_is_retried(self):
        suite = _small_suite(frames=24, clips=1)
        sweep = run_sweep(_METHODS, suite, jobs=2, shard_runner=flaky_runner)
        assert sweep.ok
        assert sweep.retried_shards == 1

    def test_worker_hard_crash_rebuilds_pool_and_retries(self):
        suite = _small_suite(frames=24, clips=1)
        sweep = run_sweep(_METHODS, suite, jobs=2, shard_runner=hard_crash_runner)
        assert sweep.ok, sweep.summary()
        assert sweep.retried_shards >= 1
        clean = run_sweep(_METHODS, suite, jobs=1)
        for name in _METHODS:
            assert (
                sweep.results[name].per_video_accuracy
                == clean.results[name].per_video_accuracy
            )


class TestObsFunneling:
    def test_worker_spans_and_counters_reach_parent_sink(self):
        suite = _small_suite(frames=24, clips=2)
        obs = Telemetry(InMemorySink())
        sweep = run_sweep(["mpdt-320"], suite, jobs=2, obs=obs)
        assert sweep.ok
        assert obs.sink.spans_named("mpdt.detect")
        obs.flush()
        counters = {
            record["name"]: record["value"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert counters["sweep.shards_total"] == 2
        assert counters["sweep.shards_failed"] == 0
        assert counters["sweep.render_cache_misses"] > 0

    def test_inline_obs_matches_pre_engine_recording(self):
        suite = _small_suite(frames=24, clips=1)
        funneled = Telemetry(InMemorySink())
        run_sweep(["mpdt-320"], suite, jobs=2, obs=funneled)

        inline = Telemetry(InMemorySink())
        run_sweep(["mpdt-320"], _small_suite(frames=24, clips=1), jobs=1, obs=inline)
        assert [s.name for s in funneled.sink.spans_named("mpdt.detect")] == [
            s.name for s in inline.sink.spans_named("mpdt.detect")
        ]


class TestEngineLifecycle:
    def test_engine_reusable_across_sweeps(self):
        suite = _small_suite(frames=24, clips=1)
        with SweepEngine(jobs=2) as engine:
            first = engine.run(["adavp"], suite)
            second = engine.run(["adavp"], suite)
        assert (
            first.results["adavp"].per_video_accuracy
            == second.results["adavp"].per_video_accuracy
        )


class TestStoreModes:
    """Which frame store backs a sweep, and the render-once contract."""

    def _run(self, jobs, store_mb, frames=24):
        from repro.core.config import PipelineConfig
        from repro.video.framestore import configure_default

        config = (
            PipelineConfig(frame_store_mb=store_mb) if store_mb is not None else None
        )
        try:
            return run_sweep(
                _METHODS, _small_suite(frames=frames), jobs=jobs, config=config
            )
        finally:
            configure_default(0)  # don't leak the budget into other tests

    def test_no_budget_reports_none(self):
        assert self._run(jobs=1, store_mb=None).store_mode == "none"
        assert self._run(jobs=1, store_mb=0).store_mode == "none"

    def test_sequential_budgeted_sweep_uses_private_store(self):
        assert self._run(jobs=1, store_mb=32).store_mode == "private"

    def test_pool_budgeted_sweep_uses_shared_store(self):
        from repro.video.framestore import shared_store_available

        sweep = self._run(jobs=2, store_mb=32)
        expected = "shared" if shared_store_available() else "private"
        assert sweep.store_mode == expected

    def test_pool_sweep_renders_each_frame_once_fleet_wide(self):
        from repro.video.framestore import shared_store_available

        if not shared_store_available():
            pytest.skip("needs the cross-process store")
        frames = 24
        suite = _small_suite(frames=frames)
        unique_frames = sum(clip.config.num_frames for clip in suite.clips)
        sweep = self._run(jobs=2, store_mb=64, frames=frames)
        assert sweep.ok, sweep.summary()
        # Render-once: fleet-wide misses cannot exceed the unique frame
        # count no matter how many workers scan the same clips.
        assert sweep.store_misses <= unique_frames
        assert sweep.store_lease_waits >= 0

    def test_lease_waits_funnelled_to_obs(self):
        obs = Telemetry(InMemorySink())
        from repro.core.config import PipelineConfig
        from repro.video.framestore import configure_default

        try:
            run_sweep(
                _METHODS,
                _small_suite(frames=12),
                jobs=1,
                config=PipelineConfig(frame_store_mb=16),
                obs=obs,
            )
        finally:
            configure_default(0)
        obs.flush()
        counters = {
            record["name"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        assert "sweep.store_lease_waits" in counters


class TestArtifactStoreModes:
    """Which derived-artifact store backs a sweep, and its contracts."""

    def _run(self, jobs, artifact_mb, frames=24, obs=None):
        from repro.core.config import PipelineConfig
        from repro.vision.artifact_store import configure_default

        config = (
            PipelineConfig(artifact_store_mb=artifact_mb)
            if artifact_mb is not None
            else None
        )
        try:
            return run_sweep(
                _METHODS,
                _small_suite(frames=frames),
                jobs=jobs,
                config=config,
                obs=obs,
            )
        finally:
            configure_default(0)  # don't leak the budget into other tests

    def test_no_budget_reports_none(self):
        assert self._run(jobs=1, artifact_mb=None).artifact_store_mode == "none"
        assert self._run(jobs=1, artifact_mb=0).artifact_store_mode == "none"

    def test_sequential_budgeted_sweep_uses_private_store(self):
        sweep = self._run(jobs=1, artifact_mb=256)
        assert sweep.artifact_store_mode == "private"
        # Method arms revisit each clip's pyramids: the second arm is
        # served from the store instead of rebuilding.
        assert sweep.artifact_hits > 0
        assert sweep.artifact_misses > 0

    def test_pool_budgeted_sweep_uses_shared_store(self):
        from repro.video.framestore import shared_store_available

        sweep = self._run(jobs=2, artifact_mb=256)
        expected = "shared" if shared_store_available() else "private"
        assert sweep.artifact_store_mode == expected

    def test_store_never_changes_results(self):
        with_store = self._run(jobs=1, artifact_mb=256)
        without_store = self._run(jobs=1, artifact_mb=0)
        for name in _METHODS:
            assert (
                with_store.results[name].per_video_accuracy
                == without_store.results[name].per_video_accuracy
            )
            assert (
                with_store.results[name].per_video_mean_f1
                == without_store.results[name].per_video_mean_f1
            )

    def test_pyramid_and_artifact_counters_funnelled_to_obs(self):
        obs = Telemetry(InMemorySink())
        sweep = self._run(jobs=1, artifact_mb=256, frames=12, obs=obs)
        assert sweep.pyramid_misses > 0
        obs.flush()
        counters = {
            record["name"]
            for record in obs.sink.last_metrics()
            if record["kind"] == "counter"
        }
        for name in (
            "sweep.artifact_hits",
            "sweep.artifact_misses",
            "sweep.artifact_evicted_bytes",
            "sweep.artifact_lease_waits",
            "sweep.pyramid_hits",
            "sweep.pyramid_misses",
        ):
            assert name in counters, name

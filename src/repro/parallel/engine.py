"""Process-pool execution of (method × clip) sweep grids.

Every paper figure/table runs the same grid shape: a set of registry
methods over a :class:`~repro.video.dataset.VideoSuite`.  The cells are
embarrassingly parallel, so the engine shards the grid into
:class:`~repro.parallel.specs.ShardSpec` work units, fans them out over a
spawn-safe ``concurrent.futures`` process pool, and reduces the results
in deterministic grid order — a parallel sweep produces bit-identical
:class:`~repro.experiments.runners.MethodResult` objects to a sequential
one, because every shard is a pure function of its spec.

Failure policy: a shard that raises (or whose worker dies) is retried
once on a healthy pool; a shard that fails every attempt is reported in
:attr:`SweepResult.failures` and its cell is skipped — one bad cell never
sinks the sweep.  A hard worker death (``BrokenProcessPool``) poisons
every in-flight future, so collateral shards may burn a retry attempt;
the pool is rebuilt before resubmission.

Telemetry: workers cannot share the parent's sink, so each shard records
into its own in-memory telemetry and ships the finished spans plus a
metrics snapshot back in its :class:`ShardResult`; the parent funnels
them into its sink in grid order (span ids restart per shard — sinks
must not assume global uniqueness).  At ``jobs=1`` the engine runs
shards inline with the parent telemetry, so traces — including the
golden-trace digests — match the pre-engine sequential path exactly.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.config import PipelineConfig
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.parallel.costs import order_shards
from repro.parallel.specs import (
    ClipSpec,
    MethodSpec,
    ShardFailure,
    ShardResult,
    ShardSpec,
    StoreConfig,
    validate_store_budgets,
)
from repro.video.dataset import VideoClip, VideoSuite

# Callback invoked after every shard settles: (done, total, result).
ProgressCallback = Callable[[int, int, ShardResult], None]

# How many reconstructed clips one worker keeps alive.  Clips are the
# expensive part of a shard (scene + renderer caches); methods sharing a
# clip land on warm state, but the cache stays bounded so a long sweep
# over many clips cannot grow worker memory without limit.
_WORKER_CLIP_CAPACITY = 8

_worker_clips: OrderedDict[ClipSpec, VideoClip] = OrderedDict()

# The store config this worker last applied.  Specs arrive one shard at
# a time but carry the same config across a sweep, so comparing against
# the last applied one makes "configure once per worker" hold without
# any extra control channel.
_worker_store_config: StoreConfig | None = None
_worker_artifact_config: StoreConfig | None = None


def _apply_store_config(cfg: StoreConfig | None) -> None:
    """Idempotently set up this worker's frame store from the shard spec.

    ``"shared"`` attaches the parent's cross-process store and installs
    it as the process-wide store; ``"private"`` budgets the in-process
    store (the pre-shared-memory behaviour); ``None`` uninstalls any
    shared overlay but leaves the private budget alone — a sweep with no
    opinion must not evict what a previous sweep paid for.
    """
    global _worker_store_config
    if cfg == _worker_store_config:
        return
    from repro.video import framestore

    if cfg is None:
        framestore.install_store(None)
    elif cfg.mode == "shared":
        framestore.install_store(framestore.SharedFrameStore.attach(cfg.token))
    else:
        framestore.install_store(None)
        framestore.configure_default(cfg.budget_bytes)
    _worker_store_config = cfg


def _apply_artifact_config(cfg: StoreConfig | None) -> None:
    """Same idempotent contract as :func:`_apply_store_config`, one layer
    up: this worker's derived-artifact store (pyramids + gradients)."""
    global _worker_artifact_config
    if cfg == _worker_artifact_config:
        return
    from repro.vision import artifact_store

    if cfg is None:
        artifact_store.install_store(None)
    elif cfg.mode == "shared":
        artifact_store.install_store(artifact_store.attach_shared(cfg.token))
    else:
        artifact_store.install_store(None)
        artifact_store.configure_default(cfg.budget_bytes)
    _worker_artifact_config = cfg


def _clip_for(spec: ClipSpec) -> VideoClip:
    """Worker-local clip reconstruction with a small LRU."""
    clip = _worker_clips.get(spec)
    if clip is None:
        clip = spec.build()
        _worker_clips[spec] = clip
        while len(_worker_clips) > _WORKER_CLIP_CAPACITY:
            _worker_clips.popitem(last=False)
    else:
        _worker_clips.move_to_end(spec)
    return clip


def run_shard(
    spec: ShardSpec,
    clip: VideoClip | None = None,
    obs: Telemetry | None = None,
) -> ShardResult:
    """Execute one (method, clip) cell; never raises.

    This is the worker entry point (spawn-safe: it is a module-level
    function and ``spec`` is plain picklable data).  The inline ``jobs=1``
    path calls it too, passing the caller's live ``clip`` and telemetry so
    sequential sweeps share renderer caches and sinks exactly like the
    pre-engine code did.  Any exception is captured into
    :attr:`ShardResult.error` — failure isolation happens here, on the
    worker side, so a crashing pipeline reports instead of killing the
    pool.
    """
    result = ShardResult(
        index=spec.index,
        method=spec.method.name,
        clip_name=spec.clip.name,
        clip_index=spec.clip_index,
        worker_pid=os.getpid(),
        attempt=spec.attempt,
    )
    start = time.perf_counter()
    telemetry = obs
    try:
        # Imported here: repro.experiments.runners imports this package
        # for its ``jobs`` parameter, and workers should pay the import
        # only once per process anyway.
        from repro.experiments.runners import (
            evaluate_run,
            make_method,
            run_method_on_clip,
        )

        if telemetry is None and spec.collect_obs:
            from repro.obs import InMemorySink

            telemetry = Telemetry(InMemorySink())
        if clip is None:
            # Pool path: this process is a worker.  Set up the stores
            # before building the clip so the renderer resolves them.
            _apply_store_config(spec.store)
            _apply_artifact_config(spec.artifact_store)
            clip = _clip_for(spec.clip)
        from repro.vision import pyramid_cache as pyramid_cache_mod
        from repro.vision.artifact_store import default_store as default_artifact_store

        renderer = clip.renderer
        store = renderer.frame_store
        artifact_store = default_artifact_store()
        hits0, misses0 = renderer.cache_hits, renderer.cache_misses
        # Lock-held snapshots at both ends: reading the bare counter
        # attributes tears when the threaded live executor shares the
        # process-wide store with this shard.
        stats0 = store.stats()
        artifact_stats0 = artifact_store.stats()
        pyramid0 = pyramid_cache_mod.counters_snapshot()
        renderer.set_obs(telemetry or NULL_TELEMETRY)
        store.set_obs(telemetry or NULL_TELEMETRY)
        artifact_store.set_obs(telemetry or NULL_TELEMETRY)
        try:
            kwargs = dict(spec.method.kwargs)
            if telemetry is not None:
                kwargs.setdefault("obs", telemetry)
            method = make_method(spec.method.name, spec.method.config, **kwargs)
            run = run_method_on_clip(method, clip)
        finally:
            renderer.set_obs(NULL_TELEMETRY)
            store.set_obs(NULL_TELEMETRY)
            artifact_store.set_obs(NULL_TELEMETRY)
        accuracy, f1 = evaluate_run(
            run, clip, alpha=spec.alpha, iou_threshold=spec.iou_threshold
        )
        result.accuracy = accuracy
        result.mean_f1 = float(f1.mean())
        result.activity = run.activity
        result.render_hits = renderer.cache_hits - hits0
        result.render_misses = renderer.cache_misses - misses0
        stats1 = store.stats()
        result.store_hits = stats1["hits"] - stats0["hits"]
        result.store_misses = stats1["misses"] - stats0["misses"]
        result.store_lease_waits = stats1["lease_waits"] - stats0["lease_waits"]
        if getattr(store, "owner", True):
            # Shared-store workers skip this: their eviction counters are
            # fleet-wide (the parent performs the evictions), so summing
            # per-shard deltas across workers would double-count.  The
            # engine adds the owner-side delta once instead.
            result.store_evicted_bytes = (
                stats1["evicted_bytes"] - stats0["evicted_bytes"]
            )
        artifact_stats1 = artifact_store.stats()
        result.artifact_hits = artifact_stats1["hits"] - artifact_stats0["hits"]
        result.artifact_misses = artifact_stats1["misses"] - artifact_stats0["misses"]
        result.artifact_lease_waits = (
            artifact_stats1["lease_waits"] - artifact_stats0["lease_waits"]
        )
        if artifact_store.owner:
            # Same owner-only rule as the frame store above.
            result.artifact_evicted_bytes = (
                artifact_stats1["evicted_bytes"] - artifact_stats0["evicted_bytes"]
            )
        pyramid1 = pyramid_cache_mod.counters_snapshot()
        result.pyramid_hits = pyramid1["hits"] - pyramid0["hits"]
        result.pyramid_misses = pyramid1["misses"] - pyramid0["misses"]
        if spec.keep_run:
            result.run = run
        if telemetry is not None and obs is None:
            # Worker-side telemetry: flush and ship it home.  When the
            # parent's own telemetry was passed in (inline path), the
            # spans are already in the parent sink.
            telemetry.flush()
            sink = telemetry.sink
            result.spans = list(getattr(sink, "spans", ()))
            result.metrics = list(getattr(sink, "last_metrics", lambda: [])())
    except Exception:
        result.error = traceback.format_exc()
    result.elapsed_s = time.perf_counter() - start
    return result


@dataclass
class SweepResult:
    """Deterministically reduced outcome of one sweep.

    ``results`` maps method name → aggregated ``MethodResult`` in the
    caller's method order; per-video lists are in suite clip order with
    failed cells skipped.  A method whose every shard failed is absent
    from ``results`` and present in ``failures``.
    """

    results: dict[str, Any]
    failures: list[ShardFailure] = field(default_factory=list)
    jobs: int = 1
    total_shards: int = 0
    retried_shards: int = 0
    elapsed_s: float = 0.0
    render_hits: int = 0
    render_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_evicted_bytes: int = 0
    store_lease_waits: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_evicted_bytes: int = 0
    artifact_lease_waits: int = 0
    pyramid_hits: int = 0
    pyramid_misses: int = 0
    # Which store backed the sweep: "shared" (cross-process segments),
    # "private" (per-process LRU), or "none" (store unconfigured).
    store_mode: str = "none"
    # Same trichotomy for the derived-artifact store.
    artifact_store_mode: str = "none"

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_if_failed(self) -> "SweepResult":
        if self.failures:
            detail = "; ".join(
                f"{f.method} × {f.clip_name} after {f.attempts} attempts"
                for f in self.failures
            )
            raise RuntimeError(
                f"{len(self.failures)} sweep shard(s) failed: {detail}\n"
                f"first error:\n{self.failures[0].error}"
            )
        return self

    def summary(self) -> str:
        lines = [
            f"sweep: {self.total_shards} shards, jobs={self.jobs}, "
            f"{self.elapsed_s:.2f}s wall"
            f" ({self.retried_shards} retried, {len(self.failures)} failed;"
            f" render cache {self.render_hits} hits / {self.render_misses} misses;"
            f" frame store [{self.store_mode}] {self.store_hits} hits /"
            f" {self.store_misses} misses;"
            f" artifact store [{self.artifact_store_mode}] {self.artifact_hits}"
            f" hits / {self.artifact_misses} misses)"
        ]
        for failure in self.failures:
            first_line = failure.error.strip().splitlines()[-1]
            lines.append(
                f"  FAILED {failure.method} × {failure.clip_name} "
                f"({failure.attempts} attempts): {first_line}"
            )
        return "\n".join(lines)


class SweepEngine:
    """Owns the process pool; reusable across sweeps.

    Reuse matters: spawned workers pay a Python + numpy import on start,
    and keep their clip caches warm between sweeps — the macro-bench
    measures steady-state sweeps on one engine.  Use as a context manager
    or call :meth:`close`.  ``jobs=1`` never creates a pool.
    """

    def __init__(self, jobs: int = 1, retries: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1 (use jobs=1 for sequential)")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.jobs = jobs
        self.retries = retries
        self._pool: ProcessPoolExecutor | None = None
        # Cross-process store this engine owns (created lazily on the
        # first store-enabled jobs>1 sweep, kept warm across runs so a
        # macro-bench repeat starts with the same hot store a sequential
        # repeat enjoys from the process-wide private store).
        self._shared_store: Any = None
        # Likewise for the cross-process derived-artifact store.
        self._shared_artifact_store: Any = None

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        if self._shared_store is not None:
            # After the pool: workers must be gone before segment names
            # are unlinked (their live mappings survive regardless, but a
            # mid-shard attach of a just-unlinked name would fail).
            self._shared_store.close()
            self._shared_store = None
        if self._shared_artifact_store is not None:
            self._shared_artifact_store.close()
            self._shared_artifact_store = None

    def _ensure_shared_store(self, budget_bytes: int) -> Any:
        from repro.video.framestore import SharedFrameStore

        if self._shared_store is None:
            self._shared_store = SharedFrameStore.create(budget_bytes)
        elif self._shared_store.max_bytes != budget_bytes:
            self._shared_store.set_budget(budget_bytes)
        return self._shared_store

    def _ensure_shared_artifact_store(self, budget_bytes: int) -> Any:
        from repro.vision.artifact_store import create_shared

        if self._shared_artifact_store is None:
            self._shared_artifact_store = create_shared(budget_bytes)
        elif self._shared_artifact_store.max_bytes != budget_bytes:
            self._shared_artifact_store.set_budget(budget_bytes)
        return self._shared_artifact_store

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            # Spawn (not fork): workers must import a clean interpreter —
            # forked children would inherit renderer caches, sink locks,
            # and whatever thread state the parent happens to hold.
            import multiprocessing

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context("spawn"),
            )
        return self._pool

    def _reset_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    # -- sweep ---------------------------------------------------------------

    def run(
        self,
        methods: Sequence[str],
        suite: VideoSuite,
        config: PipelineConfig | None = None,
        alpha: float = 0.7,
        iou_threshold: float = 0.5,
        keep_runs: bool = False,
        obs: Telemetry | None = None,
        progress: ProgressCallback | None = None,
        method_kwargs: dict[str, dict[str, Any]] | None = None,
        shard_runner: Callable[[ShardSpec], ShardResult] = run_shard,
    ) -> SweepResult:
        """Run ``methods × suite`` and reduce to per-method results."""
        methods = list(methods)
        if not methods:
            raise ValueError("no methods to sweep")
        if len(suite) == 0:
            raise ValueError(f"suite {suite.name!r} is empty")
        if shard_runner is run_shard:
            # Fail fast on a typo'd method name instead of spinning up a
            # pool to learn every shard of it fails.  Custom runners may
            # interpret names however they like, so only the default path
            # checks the registry.
            from repro.experiments.runners import METHODS

            for name in methods:
                if name not in METHODS:
                    raise KeyError(
                        f"unknown method {name!r}; known: {', '.join(METHODS)}"
                    )
        method_kwargs = method_kwargs or {}
        unknown = set(method_kwargs) - set(methods)
        if unknown:
            raise KeyError(f"method_kwargs for methods not in sweep: {sorted(unknown)}")

        frame_store_mb = config.frame_store_mb if config is not None else None
        artifact_store_mb = config.artifact_store_mb if config is not None else None
        clip_specs = [
            ClipSpec.from_clip(
                clip,
                frame_store_mb=frame_store_mb,
                artifact_store_mb=artifact_store_mb,
            )
            for clip in suite
        ]
        # One budget per sweep, decided here at spec-construction time —
        # clips must not reconfigure the store mid-sweep (uniform today
        # because the budget comes from one config, but the invariant is
        # what callers composing specs by hand rely on).
        store_mb = validate_store_budgets(clip_specs)
        store_cfg, store_mode = self._prepare_store(store_mb)
        artifact_mb = validate_store_budgets(clip_specs, attr="artifact_store_mb")
        artifact_cfg, artifact_mode = self._prepare_artifact_store(artifact_mb)
        collect_obs = obs is not None and self.jobs > 1
        shards = [
            ShardSpec(
                index=mi * len(clip_specs) + ci,
                method=MethodSpec(
                    name=name, config=config, kwargs=method_kwargs.get(name, {})
                ),
                clip=clip_specs[ci],
                clip_index=ci,
                alpha=alpha,
                iou_threshold=iou_threshold,
                keep_run=keep_runs,
                collect_obs=collect_obs,
                store=store_cfg,
                artifact_store=artifact_cfg,
            )
            for mi, name in enumerate(methods)
            for ci in range(len(clip_specs))
        ]

        start = time.perf_counter()
        owner_evicted0 = (
            self._shared_store.stats()["evicted_bytes"]
            if self._shared_store is not None
            else 0
        )
        owner_artifact_evicted0 = (
            self._shared_artifact_store.stats()["evicted_bytes"]
            if self._shared_artifact_store is not None
            else 0
        )
        if self.jobs == 1:
            settled = self._execute_inline(
                shards, suite, obs, progress, shard_runner
            )
        else:
            settled = self._execute_pool(shards, progress, shard_runner)
        result = self._reduce(methods, suite, settled, obs)
        result.jobs = self.jobs
        result.total_shards = len(shards)
        result.store_mode = store_mode
        result.artifact_store_mode = artifact_mode
        if self._shared_store is not None:
            # Evictions happen owner-side only; add the delta once here
            # rather than once per shard (see run_shard).
            result.store_evicted_bytes += (
                self._shared_store.stats()["evicted_bytes"] - owner_evicted0
            )
        if self._shared_artifact_store is not None:
            result.artifact_evicted_bytes += (
                self._shared_artifact_store.stats()["evicted_bytes"]
                - owner_artifact_evicted0
            )
        result.elapsed_s = time.perf_counter() - start
        self._record_engine_metrics(obs, result)
        return result

    def _prepare_store(
        self, store_mb: int | None
    ) -> tuple[StoreConfig | None, str]:
        """Set up the sweep's frame store; returns (worker config, mode).

        The parent's process-wide store is budgeted either way — the
        inline ``jobs=1`` path renders through the caller's clips, whose
        renderers resolve it at render time.  Pool sweeps additionally
        get a worker-side config: cross-process shared segments where the
        platform supports them, per-worker private stores otherwise.
        """
        from repro.video.framestore import (
            BYTES_PER_MB,
            configure_default,
            shared_store_available,
        )

        if store_mb is None:
            return None, "none"
        budget = store_mb * BYTES_PER_MB
        configure_default(budget)
        if budget == 0:
            # An explicit zero budget disables the store everywhere; no
            # point shipping workers a config for a store that stores
            # nothing.
            return None, "none"
        if self.jobs == 1:
            return None, "private"
        if shared_store_available():
            store = self._ensure_shared_store(budget)
            return (
                StoreConfig(mode="shared", budget_bytes=budget, token=store.token),
                "shared",
            )
        return StoreConfig(mode="private", budget_bytes=budget), "private"

    def _prepare_artifact_store(
        self, store_mb: int | None
    ) -> tuple[StoreConfig | None, str]:
        """Same contract as :meth:`_prepare_store`, for the derived-artifact
        store: budget the parent's process-wide store either way, and give
        pool sweeps a worker-side config (shared segments where available,
        per-worker private stores otherwise)."""
        from repro.video.framestore import BYTES_PER_MB, shared_store_available
        from repro.vision.artifact_store import configure_default

        if store_mb is None:
            return None, "none"
        budget = store_mb * BYTES_PER_MB
        configure_default(budget)
        if budget == 0:
            return None, "none"
        if self.jobs == 1:
            return None, "private"
        if shared_store_available():
            store = self._ensure_shared_artifact_store(budget)
            return (
                StoreConfig(mode="shared", budget_bytes=budget, token=store.token),
                "shared",
            )
        return StoreConfig(mode="private", budget_bytes=budget), "private"

    def _execute_inline(
        self,
        shards: list[ShardSpec],
        suite: VideoSuite,
        obs: Telemetry | None,
        progress: ProgressCallback | None,
        shard_runner: Callable[..., ShardResult],
    ) -> dict[int, ShardResult]:
        """Sequential path: grid order, caller's clips, parent telemetry."""

        def attempt(spec: ShardSpec) -> ShardResult:
            # run_shard captures its own exceptions; a custom runner that
            # raises gets the same isolation the pool path provides.
            try:
                return shard_runner(spec, clip=suite.clips[spec.clip_index], obs=obs)
            except Exception:
                return self._engine_side_failure(spec, traceback.format_exc())

        settled: dict[int, ShardResult] = {}
        for spec in shards:
            result = attempt(spec)
            while result.error is not None and spec.attempt < self.retries:
                spec = replace(spec, attempt=spec.attempt + 1)
                result = attempt(spec)
            settled[spec.index] = result
            if progress is not None:
                progress(len(settled), len(shards), result)
        return settled

    def _execute_pool(
        self,
        shards: list[ShardSpec],
        progress: ProgressCallback | None,
        shard_runner: Callable[[ShardSpec], ShardResult],
    ) -> dict[int, ShardResult]:
        """Fan shards out over the pool; retry failures once each.

        Scheduling is longest-first with idle-worker pull: shards are
        ordered by estimated cost (LPT) and at most ``jobs + 1`` are
        in flight, so a worker that finishes early steals the next
        longest remaining shard instead of sitting idle while a
        statically assigned batch drains — the old clip-major submission
        let one expensive method gate the whole sweep.  Completion order
        does not matter because reduction is by grid index.
        """
        settled: dict[int, ShardResult] = {}
        queue = order_shards(shards)
        inflight: dict[Any, ShardSpec] = {}
        stalled_rebuilds = 0
        # One spare beyond the worker count: a freed worker immediately
        # picks up the single executor-queued shard, and the top-up below
        # replaces it — cost-aware work stealing without touching the
        # executor's internals.
        max_inflight = self.jobs + 1
        while queue or inflight:
            pool = self._ensure_pool()
            pool_broken = False
            try:
                while queue and len(inflight) < max_inflight:
                    spec = queue.popleft()
                    inflight[pool.submit(shard_runner, spec)] = spec
            except BrokenProcessPool:
                # The pool died before this spec even ran; requeue it
                # as-is (no attempt burned — the task is blameless).
                queue.appendleft(spec)
                pool_broken = True
            if inflight:
                done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                stalled_rebuilds = 0
                for future in done:
                    spec = inflight.pop(future)
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        pool_broken = True
                        result = self._engine_side_failure(
                            spec, "worker process died"
                        )
                    except Exception:
                        result = self._engine_side_failure(
                            spec, traceback.format_exc()
                        )
                    if result.error is not None and spec.attempt < self.retries:
                        # Retry at the queue head: the shard already
                        # proved expensive enough to fail late, and a
                        # retry finishing last would gate the sweep.
                        queue.appendleft(replace(spec, attempt=spec.attempt + 1))
                        continue
                    settled[spec.index] = result
                    if progress is not None:
                        progress(len(settled), len(shards), result)
                if self._shared_store is not None:
                    # Owner-side reclamation between completions: workers
                    # only read and insert, so this is the one place
                    # over-budget segments get unlinked.
                    self._shared_store.reclaim()
                if self._shared_artifact_store is not None:
                    self._shared_artifact_store.reclaim()
            else:
                stalled_rebuilds += 1
                if stalled_rebuilds > 5:
                    raise RuntimeError(
                        "process pool keeps dying before running any shard "
                        "(5 consecutive rebuilds with no progress)"
                    )
            if pool_broken:
                self._reset_pool()
        return settled

    @staticmethod
    def _engine_side_failure(spec: ShardSpec, error: str) -> ShardResult:
        return ShardResult(
            index=spec.index,
            method=spec.method.name,
            clip_name=spec.clip.name,
            clip_index=spec.clip_index,
            attempt=spec.attempt,
            error=error,
        )

    def _reduce(
        self,
        methods: list[str],
        suite: VideoSuite,
        settled: dict[int, ShardResult],
        obs: Telemetry | None,
    ) -> SweepResult:
        """Reassemble per-method results in deterministic grid order."""
        from repro.experiments.runners import MethodResult

        out = SweepResult(results={})
        num_clips = len(suite)
        for mi, name in enumerate(methods):
            method_result = MethodResult(method=name)
            succeeded = 0
            for ci in range(num_clips):
                shard = settled[mi * num_clips + ci]
                out.retried_shards += shard.attempt
                if shard.error is not None:
                    out.failures.append(
                        ShardFailure(
                            method=name,
                            clip_name=shard.clip_name,
                            attempts=shard.attempt + 1,
                            error=shard.error,
                        )
                    )
                    continue
                succeeded += 1
                method_result.per_video_accuracy.append(shard.accuracy)
                method_result.per_video_mean_f1.append(shard.mean_f1)
                method_result.activity.merge(shard.activity)
                if shard.run is not None:
                    method_result.runs.append(shard.run)
                out.render_hits += shard.render_hits
                out.render_misses += shard.render_misses
                out.store_hits += shard.store_hits
                out.store_misses += shard.store_misses
                out.store_evicted_bytes += shard.store_evicted_bytes
                out.store_lease_waits += shard.store_lease_waits
                out.artifact_hits += shard.artifact_hits
                out.artifact_misses += shard.artifact_misses
                out.artifact_evicted_bytes += shard.artifact_evicted_bytes
                out.artifact_lease_waits += shard.artifact_lease_waits
                out.pyramid_hits += shard.pyramid_hits
                out.pyramid_misses += shard.pyramid_misses
                if obs is not None and (shard.spans or shard.metrics):
                    for span in shard.spans:
                        obs.sink.record_span(span)
                    if shard.metrics:
                        obs.sink.record_metrics(shard.metrics)
            if succeeded:
                out.results[name] = method_result
        return out

    def _record_engine_metrics(
        self, obs: Telemetry | None, result: SweepResult
    ) -> None:
        if obs is None or not obs.enabled:
            return
        obs.counter("sweep.shards_total").inc(result.total_shards)
        obs.counter("sweep.shards_retried").inc(result.retried_shards)
        obs.counter("sweep.shards_failed").inc(len(result.failures))
        obs.counter("sweep.render_cache_hits").inc(result.render_hits)
        obs.counter("sweep.render_cache_misses").inc(result.render_misses)
        obs.counter("sweep.store_hits").inc(result.store_hits)
        obs.counter("sweep.store_misses").inc(result.store_misses)
        obs.counter("sweep.store_evicted_bytes").inc(result.store_evicted_bytes)
        obs.counter("sweep.store_lease_waits").inc(result.store_lease_waits)
        obs.counter("sweep.artifact_hits").inc(result.artifact_hits)
        obs.counter("sweep.artifact_misses").inc(result.artifact_misses)
        obs.counter("sweep.artifact_evicted_bytes").inc(result.artifact_evicted_bytes)
        obs.counter("sweep.artifact_lease_waits").inc(result.artifact_lease_waits)
        obs.counter("sweep.pyramid_hits").inc(result.pyramid_hits)
        obs.counter("sweep.pyramid_misses").inc(result.pyramid_misses)
        obs.gauge("sweep.jobs").set(self.jobs)


def run_sweep(
    methods: Sequence[str],
    suite: VideoSuite,
    config: PipelineConfig | None = None,
    alpha: float = 0.7,
    iou_threshold: float = 0.5,
    keep_runs: bool = False,
    jobs: int = 1,
    retries: int = 1,
    obs: Telemetry | None = None,
    progress: ProgressCallback | None = None,
    method_kwargs: dict[str, dict[str, Any]] | None = None,
    shard_runner: Callable[[ShardSpec], ShardResult] = run_shard,
) -> SweepResult:
    """One-shot sweep on a transient :class:`SweepEngine`."""
    if jobs < 1:
        jobs = os.cpu_count() or 1
    with SweepEngine(jobs=jobs, retries=retries) as engine:
        return engine.run(
            methods,
            suite,
            config=config,
            alpha=alpha,
            iou_threshold=iou_threshold,
            keep_runs=keep_runs,
            obs=obs,
            progress=progress,
            method_kwargs=method_kwargs,
            shard_runner=shard_runner,
        )

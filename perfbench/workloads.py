"""The benchmark's three workloads, built from a seed.

Each workload builds its inputs from the benchmark seed and hands only
those to the program.  The clips themselves are fixed (the evaluation
suite's own scenes); the seed draws the simulated detector's noise
(``PipelineConfig.detector_seed``) for the vision workloads and the
fleet for the serve ladder.  Varying the scenes instead would change
how many objects there are to track, and with it the amount of work,
by more than the run-to-run noise the benchmark has to resolve.

A workload runs one *pass* at a time:

- ``fig6_par``: one cold fig6 sweep on a fresh two-worker ``SweepEngine``
  with shared frame and artifact stores (closed loop: a worker takes the
  next shard when it frees up);
- ``stream_adavp``: AdaVP over one long calm → busy → calm clip,
  in-process with the ``repro run`` defaults (stores off), plus its
  evaluation;
- ``serve_ladder``: the ``servebench`` fleet ladder (open loop in
  virtual time).

A pass reports its wall time, its CPU time (the benchmark process plus
its pool workers' shards) as measured and, when asked to ``scale``, at
the reference speed of ``perfbench/calibrate.py``, the operations it attempted and how many
failed or gave output that differs from the reference, the program's
own counters, and (when traced) the layer spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any

from perfbench.calibrate import ScaledClock
from perfbench.shards import ROOT as SHARD_ROOT
from perfbench.shards import (
    CPU_KEY,
    SPANS_KEY,
    WARM,
    WARM_TRACED,
    timed_shard,
    traced_shard,
    warm_shard,
)
from perfbench.tracer import Tracer, install
from repro.core.config import PipelineConfig
from repro.experiments.fig6_overall import FIG6_METHODS
from repro.experiments import runners
from repro.experiments.workloads import make_multiphase_clip, make_phase_clip
from repro.parallel import SweepEngine, run_shard
from repro.serve.scheduler import ServeConfig, fleet_configs, serve_fleet
from repro.video import framestore
from repro.video.dataset import VideoClip, VideoSuite, make_clip
from repro.vision import artifact_store, pyramid_cache

PASS_ROOT = "pass"
SHM_DIR = "/dev/shm"
SHM_PREFIXES = ("reprofs_", "reproas_")
MB = 1 << 20


@dataclass(frozen=True)
class Size:
    fig6_methods: tuple[str, ...]
    fig6_clips: int
    fig6_frames: int
    stream_frames: int
    serve_rungs: tuple[int, ...]
    serve_duration_s: float
    serve_warmup_s: float


SIZES = {
    # The 512-stream rung of `repro servebench` sheds most best-effort
    # requests by design; a shed request is a failed operation here, so
    # the ladder stops at 256, the largest rung that serves every request.
    "full": Size(
        fig6_methods=FIG6_METHODS + ("mve", "mpdt-mve-512"),
        fig6_clips=4,
        fig6_frames=150,
        stream_frames=900,
        serve_rungs=(16, 32, 64, 128, 256),
        serve_duration_s=12.0,
        serve_warmup_s=4.0,
    ),
    "tiny": Size(
        fig6_methods=("adavp", "mve", "no-tracking-320"),
        fig6_clips=2,
        fig6_frames=20,
        stream_frames=45,
        serve_rungs=(4, 8),
        serve_duration_s=3.0,
        serve_warmup_s=1.0,
    ),
}


@dataclass
class Pass:
    """What one timed pass produced."""

    wall_s: float
    # User plus system CPU seconds of this process and, when scaled, the
    # pool workers' shards, as measured and at the reference speed.
    cpu_s: float
    scaled_cpu_s: float
    attempted: int
    failed: int
    mismatches: list[str] = field(default_factory=list)
    # The program's own counters (cache hits, store traffic, ...).
    counters: dict[str, float] = field(default_factory=dict)
    # Layer spans when traced, and the layer name of the operation roots.
    spans: list[list[Any]] | None = None
    roots: str = PASS_ROOT
    extra: dict[str, Any] = field(default_factory=dict)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _activity(log) -> dict:
    return {
        "duration": float(log.duration).hex(),
        "gpu": {k: float(v).hex() for k, v in log.gpu_busy.items()},
        "cpu": {k: float(v).hex() for k, v in log.cpu_busy.items()},
    }


def shm_segments() -> dict[str, int]:
    """The store segments in /dev/shm: name -> bytes allocated."""
    out = {}
    try:
        entries = list(os.scandir(SHM_DIR))
    except FileNotFoundError:
        return out
    for entry in entries:
        if entry.name.startswith(SHM_PREFIXES):
            try:
                out[entry.name] = entry.stat().st_blocks * 512
            except FileNotFoundError:
                continue
    return out


def private_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` outside shared-memory segments (0 once
    the process is gone).  A worker's mapped store segments count in its
    RSS but belong to ``/dev/shm``, which ``shm_peak_mb`` reports."""
    fields = {}
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                key, _, value = line.partition(":")
                if key in ("VmRSS", "RssShmem"):
                    fields[key] = int(value.split()[0]) * 1024
    except (FileNotFoundError, ProcessLookupError):
        return 0
    return fields.get("VmRSS", 0) - fields.get("RssShmem", 0)


class Sampler:
    """Polls the peak bytes of store segments new since ``before`` and
    the peak private RSS of each of ``pids``."""

    def __init__(self, before: set[str], pids: set[int], interval_s: float = 0.25) -> None:
        self.before = before
        self.pids = pids
        self.interval_s = interval_s
        self.shm_peak_bytes = 0
        self.rss_peak_bytes = dict.fromkeys(pids, 0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _sample(self) -> None:
        total = sum(
            size for name, size in shm_segments().items() if name not in self.before
        )
        self.shm_peak_bytes = max(self.shm_peak_bytes, total)
        for pid in self.pids:
            self.rss_peak_bytes[pid] = max(self.rss_peak_bytes[pid], private_rss_bytes(pid))

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()


# -- fig6_par ----------------------------------------------------------------


def fig6_suite(size: Size) -> VideoSuite:
    """Four clips of the evaluation suite: calm ``meeting_room-211``, busy
    ``highway_surveillance-202`` and ``city_street-204``, multi-phase
    ``intersection_phased-262``."""
    base = 202  # evaluation_suite's default seed
    frames = size.fig6_frames
    clips = [
        make_clip("meeting_room", seed=base + 9, num_frames=frames),
        make_clip("highway_surveillance", seed=base, num_frames=frames),
        make_clip("city_street", seed=base + 2, num_frames=frames),
        make_phase_clip("intersection", base + 60, frames, speed_scale=2.2),
    ]
    return VideoSuite(name="perfbench-fig6", clips=clips[: size.fig6_clips])


def sweep_digests(sweep) -> dict[str, str]:
    """One digest per method over everything the sweep reduces to."""
    return {
        name: _digest(
            {
                "accuracy": _hex(result.per_video_accuracy),
                "mean_f1": _hex(result.per_video_mean_f1),
                "activity": _activity(result.activity),
            }
        )
        for name, result in sweep.results.items()
    }


class Fig6Par:
    """Cold fig6 sweeps, each on a fresh pool with fresh, empty stores."""

    name = "fig6_par"
    jobs = 2
    # Users pay a cold pool and empty stores on every sweep, so no
    # warm-up; the reference sweep runs in a process of its own.
    warm_up_with_reference = False

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        # The macrobench budgets: frame store and derived-artifact store.
        self.config = PipelineConfig(
            detector_seed=seed, frame_store_mb=128, artifact_store_mb=384
        )
        self.methods = list(size.fig6_methods)
        self.suite: VideoSuite | None = None
        self.pool_spawn_s: list[float] = []
        self._engine: SweepEngine | None = None
        self._engine_traced = False
        self._shm_before: set[str] = set()
        self._worker_pids: set[int] = set()

    def setup(self) -> None:
        self.suite = fig6_suite(self.size)
        self._prepare(traced=False)

    def reference(self) -> dict[str, str]:
        """An untimed sweep with both stores off.

        It runs on the same two workers rather than sequentially: a
        sequential sweep takes twice as long, and every run of this
        workload pays for its reference.  That ``jobs`` never changes
        results is the program's own tested invariant, and the recorded
        digests of the default seed come from a sequential sweep.
        """
        suite = fig6_suite(self.size)
        off = replace(self.config, frame_store_mb=0, artifact_store_mb=0)
        with SweepEngine(jobs=self.jobs) as engine:
            return sweep_digests(engine.run(self.methods, suite, config=off))

    def _prepare(self, traced: bool) -> None:
        """A fresh pool whose workers have imported the program, and
        fresh shared stores; untimed."""
        if self._engine is not None and self._engine_traced == traced:
            return
        self._close_engine()
        self._shm_before = set(shm_segments())
        start = time.perf_counter()
        engine = SweepEngine(jobs=self.jobs)
        prefix = WARM_TRACED if traced else WARM
        pids: set[int] = set()
        for _ in range(3):
            engine.run(
                [f"{prefix}.{i}" for i in range(self.jobs)],
                self.suite,
                config=self.config,
                progress=lambda done, total, r: pids.add(r.worker_pid),
                shard_runner=warm_shard,
            )
            if len(pids) >= self.jobs:
                break
        self.pool_spawn_s.append(time.perf_counter() - start)
        self._worker_pids = pids
        self._engine = engine
        self._engine_traced = traced

    def _close_engine(self) -> int:
        """Close the engine; returns how many of its segments outlived it."""
        if self._engine is None:
            return 0
        self._engine.close()
        self._engine = None
        return len(set(shm_segments()) - self._shm_before)

    def close(self) -> None:
        self._close_engine()

    def run_pass(self, traced: bool, scale: bool, expected: dict[str, str]) -> Pass:
        self._prepare(traced)
        shards = []
        with Sampler(self._shm_before, self._worker_pids) as sampler:
            clock = ScaledClock(scale=scale)
            sweep = clock.step(
                self._engine.run,
                self.methods,
                self.suite,
                config=self.config,
                progress=lambda done, total, r: shards.append(r),
                shard_runner=(
                    traced_shard if traced else timed_shard if scale else run_shard
                ),
            )
        orphans = self._close_engine()
        shard_cpus = [entry[CPU_KEY] for r in shards for entry in r.metrics if CPU_KEY in entry]

        digests = sweep_digests(sweep)
        bad_methods = [m for m in self.methods if digests.get(m) != expected.get(m)]
        failed_cells = {(f.method, f.clip_name) for f in sweep.failures}
        failed_cells |= {
            (m, clip.name) for m in bad_methods for clip in self.suite
        }
        adavp = sweep.results.get("adavp")
        out = Pass(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s + sum(raw for raw, _ in shard_cpus),
            scaled_cpu_s=clock.scaled_cpu_s + sum(at_ref for _, at_ref in shard_cpus),
            # Every shard, plus the teardown, which fails if it leaves a
            # segment behind.
            attempted=sweep.total_shards + 1,
            failed=len(failed_cells) + (1 if orphans else 0),
            mismatches=[f"method {m}" for m in bad_methods],
            counters={
                "render_hits": sweep.render_hits,
                "render_misses": sweep.render_misses,
                "store_hits": sweep.store_hits,
                "store_misses": sweep.store_misses,
                "store_lease_waits": sweep.store_lease_waits,
                "store_evicted_bytes": sweep.store_evicted_bytes,
                "artifact_hits": sweep.artifact_hits,
                "artifact_misses": sweep.artifact_misses,
                "artifact_lease_waits": sweep.artifact_lease_waits,
                "artifact_evicted_bytes": sweep.artifact_evicted_bytes,
                "pyramid_hits": sweep.pyramid_hits,
                "pyramid_misses": sweep.pyramid_misses,
                "retries": sweep.retried_shards,
            },
            roots=SHARD_ROOT,
            extra={
                "accuracy": adavp.accuracy if adavp is not None else 0.0,
                "shm_peak_mb": sampler.shm_peak_bytes / MB,
                "worker_rss_peak_mb": max(sampler.rss_peak_bytes.values(), default=0) / MB,
                "shm_orphans": orphans,
                "jobs": self.jobs,
                "shard_elapsed_s": [r.elapsed_s for r in shards if r.ok],
            },
        )
        if traced:
            spans: list[list[Any]] = []
            timeline = []
            for result in shards:
                for entry in result.metrics:
                    rows = entry.get(SPANS_KEY)
                    if rows is None:
                        continue
                    # Parent indices are per shard; shift them into the
                    # pass-wide list.
                    offset = len(spans)
                    for row in rows:
                        if row[3] >= 0:
                            row[3] += offset
                        spans.append(row)
                        if row[0] == SHARD_ROOT:
                            timeline.append((result.worker_pid, row[1], row[2]))
            out.spans = spans
            out.extra["shard_timeline"] = timeline
        return out


# -- stream_adavp --------------------------------------------------------------


def stream_clip(size: Size) -> VideoClip:
    """The evaluation suite's calm → busy → calm clip, 30 s at 30 fps in full."""
    return make_multiphase_clip(
        "city_street",
        264,
        size.stream_frames,
        [(0.0, 0.5, 0.8), (0.35, 2.4, 1.4), (0.7, 0.5, 0.8)],
    )


def run_digest(run, accuracy: float, f1) -> str:
    frames = [
        [
            r.source,
            float(r.produced_at).hex(),
            [
                [d.label, float(d.confidence).hex(), *_hex(
                    (d.box.left, d.box.top, d.box.width, d.box.height)
                )]
                for d in r.detections
            ],
        ]
        for r in run.results
    ]
    cycles = [[c.profile_name, c.detect_frame, c.tracked, c.next_profile] for c in run.cycles]
    return _digest(
        {
            "frames": frames,
            "cycles": cycles,
            "activity": _activity(run.activity),
            "accuracy": float(accuracy).hex(),
            "f1": _hex(f1),
        }
    )


class StreamAdaVP:
    """AdaVP over one long clip, in-process, stores off."""

    name = "stream_adavp"
    warm_up_with_reference = True

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        # Nothing beyond the imports: the stores stay at their default
        # (off), as under `repro run`, and each pass builds its own clip.
        pass

    def close(self) -> None:
        pass

    def _stream(self):
        """A fresh clip (no renderer cache carried over) and method."""
        config = PipelineConfig(detector_seed=self.seed)
        return stream_clip(self.size), runners.make_method("adavp", config)

    def reference(self) -> dict[str, str]:
        clip, method = self._stream()
        run = runners.run_method_on_clip(method, clip)
        return {"stream": run_digest(run, *runners.evaluate_run(run, clip))}

    def run_pass(self, traced: bool, scale: bool, expected: dict[str, str]) -> Pass:
        clip, method = self._stream()
        store0 = framestore.default_store().stats()
        artifacts0 = artifact_store.default_store().stats()
        pyramids0 = pyramid_cache.counters_snapshot()
        tracer = Tracer()
        installed = install(tracer) if traced else None
        try:
            clock = ScaledClock(scale=scale)
            root = tracer.open(PASS_ROOT) if traced else None
            run = clock.step(runners.run_method_on_clip, method, clip)
            # Looked up on the module, where the tracer rebinds it.
            accuracy, f1 = clock.step(runners.evaluate_run, run, clip)
            if traced:
                tracer.close(root)
        finally:
            if installed is not None:
                installed.uninstall()
        store1 = framestore.default_store().stats()
        artifacts1 = artifact_store.default_store().stats()
        pyramids1 = pyramid_cache.counters_snapshot()
        ok = run_digest(run, accuracy, f1) == expected.get("stream")
        return Pass(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            scaled_cpu_s=clock.scaled_cpu_s,
            attempted=1,
            failed=0 if ok else 1,
            mismatches=[] if ok else ["stream run"],
            counters={
                "render_hits": clip.renderer.cache_hits,
                "render_misses": clip.renderer.cache_misses,
                "store_hits": store1["hits"] - store0["hits"],
                "store_misses": store1["misses"] - store0["misses"],
                "store_lease_waits": store1["lease_waits"] - store0["lease_waits"],
                "store_evicted_bytes": store1["evicted_bytes"] - store0["evicted_bytes"],
                "artifact_hits": artifacts1["hits"] - artifacts0["hits"],
                "artifact_misses": artifacts1["misses"] - artifacts0["misses"],
                "artifact_lease_waits": (
                    artifacts1["lease_waits"] - artifacts0["lease_waits"]
                ),
                "artifact_evicted_bytes": (
                    artifacts1["evicted_bytes"] - artifacts0["evicted_bytes"]
                ),
                "pyramid_hits": pyramids1["hits"] - pyramids0["hits"],
                "pyramid_misses": pyramids1["misses"] - pyramids0["misses"],
            },
            spans=tracer.take() if traced else None,
            extra={"accuracy": accuracy, "frames": clip.num_frames},
        )


# -- serve_ladder --------------------------------------------------------------


class ServeLadder:
    """The servebench ladder over fleets generated from the seed."""

    name = "serve_ladder"
    warm_up_with_reference = True

    def __init__(self, seed: int, size: Size) -> None:
        self.seed = seed
        self.size = size
        self.config = ServeConfig(
            duration_s=size.serve_duration_s, warmup_s=size.serve_warmup_s
        )

        self.fleets: dict[int, list] = {}

    def _build_fleets(self) -> dict[int, list]:
        # Seed 0 gives the servebench default fleet seed, 7.
        return {
            rung: fleet_configs(rung, seed=7 + self.seed) for rung in self.size.serve_rungs
        }

    def setup(self) -> None:
        self.fleets = self._build_fleets()

    def close(self) -> None:
        pass

    def _ladder(self, fleets: dict[int, list]):
        return [serve_fleet(fleets[rung], self.config) for rung in self.size.serve_rungs]

    def reference(self) -> dict[str, str]:
        reports = self._ladder(self.fleets or self._build_fleets())
        return {str(report.num_streams): report.digest() for report in reports}

    def run_pass(self, traced: bool, scale: bool, expected: dict[str, str]) -> Pass:
        tracer = Tracer()
        installed = install(tracer) if traced else None
        try:
            # Each rung is a step of its own: the host's speed steps
            # within a ladder.
            clock = ScaledClock(scale=scale)
            root = tracer.open(PASS_ROOT) if traced else None
            reports = [
                clock.step(serve_fleet, self.fleets[rung], self.config)
                for rung in self.size.serve_rungs
            ]
            if traced:
                tracer.close(root)
        finally:
            if installed is not None:
                installed.uninstall()
        attempted = failed = 0
        mismatches = []
        # The realtime p99 at the largest rung that meets the SLO, or at
        # the smallest rung when none does.
        sustained = 0
        p99 = reports[0].classes["realtime"].wait_p99_s or 0.0
        for report in reports:
            attempted += report.submitted
            replayed = report.digest() == expected.get(str(report.num_streams))
            conserved = report.served + report.dropped == report.submitted
            if not (replayed and conserved):
                mismatches.append(f"rung {report.num_streams}")
                failed += report.submitted
            else:
                failed += report.dropped
            realtime = report.classes["realtime"]
            if (realtime.wait_p99_s is not None
                    and realtime.wait_p99_s <= self.config.slo_realtime_s):
                sustained = report.num_streams
                p99 = realtime.wait_p99_s
        return Pass(
            wall_s=clock.wall_s,
            cpu_s=clock.cpu_s,
            scaled_cpu_s=clock.scaled_cpu_s,
            attempted=attempted,
            failed=failed,
            mismatches=mismatches,
            counters={
                "requests": attempted,
                "batches": sum(r.batches for r in reports),
                "degrade_events": sum(r.degrade_events for r in reports),
            },
            spans=tracer.take() if traced else None,
            extra={"sustained_streams": sustained, "realtime_wait_p99_s": p99},
        )


WORKLOADS = {cls.name: cls for cls in (Fig6Par, StreamAdaVP, ServeLadder)}

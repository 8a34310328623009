"""Metric names, units and the per-layer table built from spans.

``END_TO_END`` and ``PER_LAYER`` are the metric lists of
``BENCHMARK.json``; every workload reports every one of them (a layer a
workload never enters reads 0).  This module needs only the standard
library, so the orchestrator can import it before the program is found.
"""

from __future__ import annotations

import statistics
from typing import Any

from perfbench.tracer import LayerStats, summarise

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_scaled_cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("video.render.calls", "count", "lower"),
    ("video.render.self_s", "s", "lower"),
    ("video.render.cache_hit_ratio", "ratio", "higher"),
    ("video.framestore.hits", "count", "higher"),
    ("video.framestore.misses", "count", "lower"),
    ("video.framestore.lease_waits", "count", "lower"),
    ("video.framestore.evicted_bytes", "bytes", "lower"),
    ("video.framestore.self_s", "s", "lower"),
    ("video.framestore.us_per_get", "us", "lower"),
    ("vision.pyramid.builds", "count", "lower"),
    ("vision.pyramid.self_s", "s", "lower"),
    ("vision.gradients.builds", "count", "lower"),
    ("vision.gradients.self_s", "s", "lower"),
    ("vision.artifact_store.hits", "count", "higher"),
    ("vision.artifact_store.misses", "count", "lower"),
    ("vision.artifact_store.lease_waits", "count", "lower"),
    ("vision.artifact_store.evicted_bytes", "bytes", "lower"),
    ("vision.artifact_store.put_s", "s", "lower"),
    ("vision.artifact_store.get_s", "s", "lower"),
    ("vision.artifact_store.us_per_get", "us", "lower"),
    ("vision.pyramid_cache.hit_ratio", "ratio", "higher"),
    ("vision.features.calls", "count", "lower"),
    ("vision.features.self_s", "s", "lower"),
    ("vision.lk.calls", "count", "lower"),
    ("vision.lk.points", "count", "lower"),
    ("vision.lk.self_s", "s", "lower"),
    ("vision.block_motion.calls", "count", "lower"),
    ("vision.block_motion.self_s", "s", "lower"),
    ("tracking.steps", "count", "lower"),
    ("tracking.step_p50_ms", "ms", "lower"),
    ("tracking.step_p99_ms", "ms", "lower"),
    ("tracking.self_s", "s", "lower"),
    ("detection.calls", "count", "lower"),
    ("detection.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    ("baselines.self_s", "s", "lower"),
    ("metrics.evaluate_s", "s", "lower"),
    ("metrics.accuracy", "ratio", "higher"),
    ("parallel.shards", "count", "lower"),
    ("parallel.shard_p50_s", "s", "lower"),
    ("parallel.shard_max_s", "s", "lower"),
    ("parallel.worker_util", "ratio", "higher"),
    ("parallel.tail_idle_s", "s", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.pool_spawn_s", "s", "lower"),
    ("parallel.shm_peak_mb", "MB", "lower"),
    ("parallel.shm_orphans", "count", "lower"),
    ("serve.requests", "count", "higher"),
    ("serve.self_s", "s", "lower"),
    ("serve.us_per_request", "us", "lower"),
    ("serve.batches", "count", "lower"),
    ("serve.degrade_events", "count", "lower"),
    ("serve.sustained_streams", "count", "higher"),
    ("serve.realtime_wait_p99_s", "s", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def _tail_idle_s(timeline: list[tuple[int, float, float]]) -> float:
    """Worker-seconds idle while the last shard finishes.

    The slowest shard sets the sweep's end; every other worker sits idle
    from its own last shard's end until then.
    """
    if not timeline:
        return 0.0
    last_end: dict[int, float] = {}
    for pid, _, end in timeline:
        last_end[pid] = max(end, last_end.get(pid, end))
    finish = max(last_end.values())
    return sum(finish - end for end in last_end.values())


def pass_layers(p: Any) -> dict[str, float]:
    """Every per-layer metric of one traced pass (except overhead)."""
    stats, root_wall, uncovered = summarise(p.spans or [], p.roots)
    empty = LayerStats()

    def s(layer: str) -> LayerStats:
        return stats.get(layer, empty)

    c = p.counters
    x = p.extra
    fs_get, fs_put = s("video.framestore.get"), s("video.framestore.put")
    as_get, as_put = s("vision.artifact_store.get"), s("vision.artifact_store.put")
    steps = s("tracking")
    shard_s = x.get("shard_elapsed_s", [])
    serve_self = s("serve").self_s
    requests = c.get("requests", 0)
    return {
        "video.render.calls": s("video.render").calls,
        "video.render.self_s": s("video.render").self_s,
        "video.render.cache_hit_ratio": _ratio(
            c.get("render_hits", 0), c.get("render_hits", 0) + c.get("render_misses", 0)
        ),
        "video.framestore.hits": c.get("store_hits", 0),
        "video.framestore.misses": c.get("store_misses", 0),
        "video.framestore.lease_waits": c.get("store_lease_waits", 0),
        "video.framestore.evicted_bytes": c.get("store_evicted_bytes", 0),
        "video.framestore.self_s": fs_get.self_s + fs_put.self_s,
        "video.framestore.us_per_get": 1e6 * _ratio(fs_get.n_time_s, fs_get.n),
        "vision.pyramid.builds": s("vision.pyramid").calls,
        "vision.pyramid.self_s": s("vision.pyramid").self_s,
        "vision.gradients.builds": s("vision.gradients").calls,
        "vision.gradients.self_s": s("vision.gradients").self_s,
        "vision.artifact_store.hits": c.get("artifact_hits", 0),
        "vision.artifact_store.misses": c.get("artifact_misses", 0),
        "vision.artifact_store.lease_waits": c.get("artifact_lease_waits", 0),
        "vision.artifact_store.evicted_bytes": c.get("artifact_evicted_bytes", 0),
        "vision.artifact_store.put_s": as_put.self_s,
        "vision.artifact_store.get_s": as_get.self_s,
        "vision.artifact_store.us_per_get": 1e6 * _ratio(as_get.n_time_s, as_get.n),
        "vision.pyramid_cache.hit_ratio": _ratio(
            c.get("pyramid_hits", 0), c.get("pyramid_hits", 0) + c.get("pyramid_misses", 0)
        ),
        "vision.features.calls": s("vision.features").calls,
        "vision.features.self_s": s("vision.features").self_s,
        "vision.lk.calls": s("vision.lk").calls,
        "vision.lk.points": s("vision.lk").n,
        "vision.lk.self_s": s("vision.lk").self_s,
        "vision.block_motion.calls": s("vision.block_motion").calls,
        "vision.block_motion.self_s": s("vision.block_motion").self_s,
        "tracking.steps": steps.calls,
        "tracking.step_p50_ms": 1e3 * _nearest_rank(steps.durations, 0.50),
        "tracking.step_p99_ms": 1e3 * _nearest_rank(steps.durations, 0.99),
        "tracking.self_s": steps.self_s,
        "detection.calls": s("detection").calls,
        "detection.self_s": s("detection").self_s,
        "core.self_s": s("core").self_s,
        "baselines.self_s": s("baselines").self_s,
        "metrics.evaluate_s": s("metrics.evaluate").self_s,
        "metrics.accuracy": x.get("accuracy", 0.0),
        "parallel.shards": len(shard_s),
        "parallel.shard_p50_s": statistics.median(shard_s) if shard_s else 0.0,
        "parallel.shard_max_s": max(shard_s, default=0.0),
        "parallel.worker_util": _ratio(sum(shard_s), x.get("jobs", 1) * p.wall_s)
        if shard_s else 0.0,
        "parallel.tail_idle_s": _tail_idle_s(x.get("shard_timeline", [])),
        "parallel.retries": c.get("retries", 0),
        "parallel.shm_peak_mb": x.get("shm_peak_mb", 0.0),
        "parallel.shm_orphans": x.get("shm_orphans", 0),
        "serve.requests": requests,
        "serve.self_s": serve_self,
        "serve.us_per_request": 1e6 * _ratio(serve_self, requests),
        "serve.batches": c.get("batches", 0),
        "serve.degrade_events": c.get("degrade_events", 0),
        "serve.sustained_streams": x.get("sustained_streams", 0),
        "serve.realtime_wait_p99_s": x.get("realtime_wait_p99_s", 0.0),
        "trace.unattributed_frac": _ratio(uncovered, root_wall),
    }


def layer_table(traced: list[Any], untraced_walls: list[float],
                pool_spawn_s: list[float], orphans: int) -> dict[str, float]:
    """Per-layer metrics: the median of each over the traced passes.

    ``trace.overhead_frac`` compares the median traced pass with the
    median untraced pass of the same run; ``parallel.shm_orphans`` is the
    total over every pass, traced or not.
    """
    per_pass = [pass_layers(p) for p in traced]
    out = {
        name: float(statistics.median(row[name] for row in per_pass))
        for name in per_pass[0]
    }
    out["parallel.pool_spawn_s"] = statistics.median(pool_spawn_s) if pool_spawn_s else 0.0
    out["parallel.shm_orphans"] = float(orphans)
    out["trace.overhead_frac"] = (
        statistics.median(p.wall_s for p in traced) / statistics.median(untraced_walls) - 1.0
    )
    return {name: out[name] for name, _, _ in PER_LAYER}

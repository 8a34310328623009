"""Shard runners the benchmark hands to ``SweepEngine.run(shard_runner=...)``.

They run inside pool workers, so they are module-level functions that
the spawn pool pickles by import path.  A worker keeps one tracer for
its lifetime: patching functions is process-wide, so the tracer that the
wrappers write to is process-wide too.
"""

from __future__ import annotations

import os

from perfbench.calibrate import ScaledClock
from perfbench.tracer import Tracer, install
from repro.parallel import ShardResult, ShardSpec, run_shard

SPANS_KEY = "perfbench.spans"
CPU_KEY = "perfbench.cpu_s"
ROOT = "parallel.shard"
WARM = "warm"
WARM_TRACED = "warm-traced"

_tracer: Tracer | None = None


def _worker_tracer() -> Tracer:
    global _tracer
    if _tracer is None:
        _tracer = Tracer()
        install(_tracer)
    return _tracer


def warm_shard(spec: ShardSpec, clip=None, obs=None) -> ShardResult:
    """Import the program (and, for a traced sweep, wrap it); run nothing.

    Used once per fresh pool before a timed sweep, so that spawning the
    workers and their imports count as set-up, not as sweep time.
    """
    import repro.experiments.runners  # noqa: F401

    if spec.method.name.startswith(WARM_TRACED):
        _worker_tracer()
    return ShardResult(
        index=spec.index,
        method=spec.method.name,
        clip_name=spec.clip.name,
        clip_index=spec.clip_index,
        worker_pid=os.getpid(),
    )


def traced_shard(spec: ShardSpec, clip=None, obs=None) -> ShardResult:
    """``run_shard`` under a root span; the shard's spans ride home in
    ``ShardResult.metrics``, which the engine only reads when it was
    given telemetry (the benchmark gives it none)."""
    tracer = _worker_tracer()
    root = tracer.open(ROOT)
    try:
        result = run_shard(spec, clip=clip, obs=obs)
    finally:
        tracer.close(root)
    result.metrics.append({SPANS_KEY: tracer.take()})
    return result


def timed_shard(spec: ShardSpec, clip=None, obs=None) -> ShardResult:
    """``run_shard`` with its CPU seconds, as measured and at the
    reference speed from the host's speed measured in this worker just
    before and after it.  The host's speed steps within a sweep, so each
    shard is scaled by what was measured next to it.  The pair rides
    home in ``ShardResult.metrics``."""
    clock = ScaledClock()
    result = clock.step(run_shard, spec, clip=clip, obs=obs)
    result.metrics.append({CPU_KEY: [clock.cpu_s, clock.scaled_cpu_s]})
    return result

"""Suite-level macro-benchmark → ``BENCH_macro.json``.

Where ``repro.perf.benches`` times vision kernels in isolation, this
module times the whole sweep engine on a reduced fig6 workload —
sequential (``jobs=1``) versus a process pool (``jobs=N``) — using the
same methodology as the micro harness: fixed seeded workload, warm-up,
min-of-k, and a correctness gate before any timing.  The identity
assertion is the macro equivalent of the micro harness's
reference-output check: both arms must produce bit-identical
``MethodResult``s or the document is not written — a benchmark of a
wrong answer is worthless.

The observed speedup is whatever the host gives: on a single-core
container the pool cannot beat the sequential arm (the document records
``host.cpu_count`` so trend tooling can tell the difference), while the
multi-core CI runners are where the speedup gate is enforced — see the
``sweep-smoke`` job and :func:`validate_macro_doc`'s ``min_speedup``.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from contextlib import contextmanager

from repro.core.config import PipelineConfig
from repro.experiments.fig6_overall import FIG6_METHODS
from repro.experiments.workloads import quick_suite
from repro.parallel import SweepEngine, SweepResult
from repro.video import framestore
from repro.vision import artifact_store

MACRO_SCHEMA_VERSION = 1
MACRO_SUITE_NAME = "repro-macro"
MACRO_BENCH_NAME = "fig6_reduced_sweep"

# Benches carry a ``kind`` key that selects their validation rules;
# entries written before the key existed are sweep-shaped.
_DEFAULT_BENCH_KIND = "sweep"


def new_macro_document(quick: bool, benches: list[dict] | None = None) -> dict:
    """An empty ``BENCH_macro.json`` skeleton with host metadata."""
    return {
        "schema_version": MACRO_SCHEMA_VERSION,
        "suite": MACRO_SUITE_NAME,
        "quick": quick,
        "created_unix": time.time(),
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "benches": benches or [],
    }

_QUICK_METHODS = ("adavp", "mve", "mpdt-320", "mpdt-608", "no-tracking-320")


def _workload(quick: bool):
    """(methods, suite) for the reduced fig6 sweep.

    Reduced = the real fig6 method grid over the quick suite's three
    scenario archetypes at shortened clip length — enough shards to keep
    a small pool busy, small enough for a CI smoke job.
    """
    if quick:
        return _QUICK_METHODS, quick_suite(frames=60)
    return FIG6_METHODS, quick_suite(frames=120)


def _assert_identical(sequential: SweepResult, parallel: SweepResult) -> None:
    """Bit-identical or bust, checked before any timing is recorded."""
    if sequential.failures or parallel.failures:
        raise AssertionError(
            "macro-bench sweep had failures:\n"
            f"{sequential.summary()}\n{parallel.summary()}"
        )
    if set(sequential.results) != set(parallel.results):
        raise AssertionError(
            f"method sets differ: {sorted(sequential.results)} "
            f"vs {sorted(parallel.results)}"
        )
    for name, seq in sequential.results.items():
        par = parallel.results[name]
        checks = (
            ("per_video_accuracy", seq.per_video_accuracy, par.per_video_accuracy),
            ("per_video_mean_f1", seq.per_video_mean_f1, par.per_video_mean_f1),
            ("activity.duration", seq.activity.duration, par.activity.duration),
            ("activity.gpu_busy", dict(seq.activity.gpu_busy), dict(par.activity.gpu_busy)),
            ("activity.cpu_busy", dict(seq.activity.cpu_busy), dict(par.activity.cpu_busy)),
            ("energy", seq.energy().as_dict(), par.energy().as_dict()),
        )
        for label, a, b in checks:
            if a != b:
                raise AssertionError(
                    f"sequential vs parallel mismatch for {name} {label}: {a!r} != {b!r}"
                )


@contextmanager
def _cold_process_stores():
    """Empty this process's frame and artifact stores on entry and exit.

    The sequential arm runs on the process's own stores, which an earlier
    caller may have left budgeted and full; a zero budget drops their
    entries, so both arms start cold and their misses compare.  Zeroing
    again on exit releases the up to 512 MiB the bench filled.
    """
    framestore.configure_default(0)
    artifact_store.configure_default(0)
    try:
        yield
    finally:
        framestore.configure_default(0)
        artifact_store.configure_default(0)


def run_macro_benchmark(
    jobs: int = 4,
    repeats: int = 3,
    quick: bool = False,
    frame_store_mb: int = 128,
    artifact_store_mb: int = 384,
) -> dict:
    """Time the reduced fig6 sweep sequentially and at ``jobs`` workers.

    Returns the ``BENCH_macro.json`` document.  Timings interleave the
    two arms repeat by repeat so drift in background load hits both
    equally; the identity check doubles as the warm-up for each arm
    (worker processes imported, renderer caches populated).

    ``frame_store_mb`` budgets the shared :class:`FrameStore` for the
    run (0 disables it).  The default comfortably fits the full-grid
    suite (3 clips × 120 frames × 225 KiB ≈ 80 MiB) so the warm-up's
    store counters show each frame rendered at most once per worker.

    ``artifact_store_mb`` budgets the shared derived-artifact store
    (pyramids + gradients; 0 disables it).  Warmed artifacts are ~3x a
    raw frame (level images + two gradient planes per level), so this
    budget must out-size the frame store's for the sweep's working set
    to stay resident under method-major order — undersizing shows up as
    evicted_bytes churn and a cold store for every arm.  A third,
    artifact-disabled
    sequential arm is timed *before* the store is ever enabled — its
    results double as the store-never-changes-results identity baseline,
    and its best time yields ``artifact_store.enabled_speedup``: the
    build-once-per-sweep win on the identical grid.  An untimed
    artifact-disabled *parallel* pass supplies the ``frame_store``
    block's parallel counters, so that gate compares the two engines at
    equal frame demand.
    """
    if jobs < 2:
        raise ValueError("macro-bench needs jobs >= 2 (it compares against jobs=1)")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    methods, suite = _workload(quick)
    config_disabled = PipelineConfig(frame_store_mb=frame_store_mb, artifact_store_mb=0)
    config = PipelineConfig(
        frame_store_mb=frame_store_mb, artifact_store_mb=artifact_store_mb
    )

    with (
        _cold_process_stores(),
        SweepEngine(jobs=1) as seq_engine,
        SweepEngine(jobs=jobs) as par_engine,
    ):
        # Artifact-disabled baseline first, not interleaved: enabling the
        # store is sticky process-wide (budget 0 would drop its entries),
        # so interleaving would cold-start the enabled arm every repeat.
        disabled = seq_engine.run(methods, suite, config=config_disabled)
        disabled_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            seq_engine.run(methods, suite, config=config_disabled)
            disabled_times.append(time.perf_counter() - start)

        # Artifact-disabled parallel pass: the frame-store reuse gate
        # compares parallel vs sequential *at equal frame demand*, and the
        # artifact store changes that demand (a store-served pyramid never
        # fetches its frame), so the frame_store block's parallel counters
        # must come from a pass with the artifact store off.  The pool is
        # fresh here, so worker renderer caches are cold and every frame
        # access is real.
        par_disabled = par_engine.run(methods, suite, config=config_disabled)

        sequential = seq_engine.run(methods, suite, config=config)
        parallel = par_engine.run(methods, suite, config=config)
        # Store-never-changes-results: the artifact-enabled arm must be
        # bit-identical to the disabled baseline, and both engine arms to
        # each other.
        _assert_identical(disabled, par_disabled)
        _assert_identical(disabled, sequential)
        _assert_identical(sequential, parallel)

        seq_times, par_times = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            seq_engine.run(methods, suite, config=config)
            seq_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            par_engine.run(methods, suite, config=config)
            par_times.append(time.perf_counter() - start)

    disabled_best = min(disabled_times)
    sequential_best = min(seq_times)
    parallel_best = min(par_times)
    bench = {
        "name": MACRO_BENCH_NAME,
        "kind": "sweep",
        "workload": {
            "methods": list(methods),
            "clips": [clip.name for clip in suite],
            "frames_per_clip": [clip.num_frames for clip in suite],
            "shards": len(methods) * len(suite),
        },
        "jobs": jobs,
        # The parallelism the host could actually deliver: a jobs=4 pool on
        # a single-vCPU container time-slices, it does not parallelise.
        # Trend tooling must compare speedups at equal effective_parallelism,
        # not equal jobs.
        "effective_parallelism": min(jobs, os.cpu_count() or 1),
        "repeats": repeats,
        "sequential_best_s": sequential_best,
        "sequential_mean_s": sum(seq_times) / len(seq_times),
        "parallel_best_s": parallel_best,
        "parallel_mean_s": sum(par_times) / len(par_times),
        "speedup": sequential_best / parallel_best,
        "results_identical": True,
        "failures": 0,
        # Store counters from the warm-up/identity pass (the cold-store
        # run): misses = frames actually rendered, hits = frames served
        # from the shared store.  With a budget that fits the suite,
        # misses equal the unique frames fleet-wide no matter how many
        # methods (or workers) rescan each clip — the parallel arm's
        # cross-process store is what makes that hold at jobs > 1, and
        # validate_macro_doc gates on it exactly.
        "frame_store": {
            "budget_mb": frame_store_mb,
            # Both arms' counters come from artifact-*disabled* passes so
            # they see equal frame demand (every pyramid rebuilt, every
            # frame access real).  The artifact-enabled passes would
            # distort both sides: the enabled sequential run inherits a
            # warm frame store and warm renderer caches (counters read
            # near-zero), and the enabled parallel run skips frame
            # fetches for every store-served pyramid.
            "sequential": {
                "store_mode": disabled.store_mode,
                "hits": disabled.store_hits,
                "misses": disabled.store_misses,
                "evicted_bytes": disabled.store_evicted_bytes,
                "lease_waits": disabled.store_lease_waits,
            },
            "parallel": {
                "store_mode": par_disabled.store_mode,
                "hits": par_disabled.store_hits,
                "misses": par_disabled.store_misses,
                "evicted_bytes": par_disabled.store_evicted_bytes,
                "lease_waits": par_disabled.store_lease_waits,
            },
        },
        # Derived-artifact store counters from the same warm-up pass, one
        # layer up from the frame store: misses = pyramids actually built,
        # hits = pyramids (and their warmed gradients) served back.  The
        # third, store-disabled sequential arm gives the wall-clock win of
        # building each pyramid once per sweep instead of once per arm.
        "artifact_store": {
            "budget_mb": artifact_store_mb,
            "disabled_sequential_best_s": disabled_best,
            "enabled_speedup": disabled_best / sequential_best,
            "sequential": {
                "store_mode": sequential.artifact_store_mode,
                "hits": sequential.artifact_hits,
                "misses": sequential.artifact_misses,
                "evicted_bytes": sequential.artifact_evicted_bytes,
                "lease_waits": sequential.artifact_lease_waits,
            },
            "parallel": {
                "store_mode": parallel.artifact_store_mode,
                "hits": parallel.artifact_hits,
                "misses": parallel.artifact_misses,
                "evicted_bytes": parallel.artifact_evicted_bytes,
                "lease_waits": parallel.artifact_lease_waits,
            },
        },
    }
    return new_macro_document(quick=quick, benches=[bench])


def merge_sweep_bench(doc: dict | None, bench: dict, quick: bool) -> dict:
    """Merge a sweep bench into an existing macro document (or start one).

    ``BENCH_macro.json`` is shared with the serve ladder; regenerating
    the sweep bench must replace only the same-name entry and keep the
    rest — mirrors :func:`repro.serve.bench.merge_serve_bench`.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("benches"), list):
        doc = new_macro_document(quick=quick)
    doc["benches"] = [
        entry for entry in doc["benches"] if entry.get("name") != bench["name"]
    ] + [bench]
    doc["quick"] = quick
    doc["created_unix"] = time.time()
    return doc


_REQUIRED_TOP_KEYS = (
    "schema_version",
    "suite",
    "quick",
    "created_unix",
    "host",
    "benches",
)
_REQUIRED_SWEEP_BENCH_KEYS = (
    "name",
    "workload",
    "jobs",
    "effective_parallelism",
    "repeats",
    "sequential_best_s",
    "parallel_best_s",
    "speedup",
    "results_identical",
    "failures",
    "frame_store",
)
_REQUIRED_SERVE_BENCH_KEYS = (
    "name",
    "kind",
    "workload",
    "slo_realtime_s",
    "rungs",
    "sustained_streams",
    "results_identical",
    "failures",
)
_REQUIRED_SERVE_RUNG_KEYS = (
    "streams",
    "realtime_wait_p99_s",
    "served_per_sim_second",
    "wall_s",
    "digest",
)


def _validate_store_block(bench: dict, store: dict, label: str) -> None:
    """Schema and reuse gate for the frame_store / artifact_store blocks.

    The gate is exact: with a budget that held the sweep's working set,
    every unique frame (or pyramid) is produced once fleet-wide, so the
    parallel arm's misses must equal the sequential arm's — render-once
    and build-once across processes.  Hits may differ (worker-local
    caches are colder than the parent's and fall through to the store),
    so only misses are compared.  An arm that evicted proves nothing
    about reuse, and a budgeted store that missed nothing measured
    nothing; both are errors.  Host-independent (cache behaviour, not
    wall clock), so no cpu_count waiver.
    """
    name = bench["name"]
    for key in ("budget_mb", "sequential", "parallel"):
        if key not in store:
            raise ValueError(f"bench {name!r} {label} missing key {key!r}")
    for arm in ("sequential", "parallel"):
        for key in ("hits", "misses", "evicted_bytes"):
            if key not in store[arm]:
                raise ValueError(f"bench {name!r} {label}.{arm} missing key {key!r}")
        # store_mode/lease_waits arrived with the cross-process store;
        # pre-existing documents omit them.  When present, the mode must
        # be one the engine can actually report.
        mode = store[arm].get("store_mode")
        if mode is not None and mode not in ("shared", "private", "none"):
            raise ValueError(
                f"bench {name!r} {label}.{arm} has unknown store_mode {mode!r}"
            )
    seq, par = store["sequential"], store["parallel"]
    if seq["evicted_bytes"] or par["evicted_bytes"]:
        raise ValueError(
            f"bench {name!r} {label} evicted {seq['evicted_bytes']} bytes "
            f"(sequential) and {par['evicted_bytes']} bytes (parallel): the "
            f"{store['budget_mb']} MiB budget is too small to certify reuse"
        )
    if store["budget_mb"] and not seq["misses"]:
        raise ValueError(
            f"bench {name!r} {label} recorded no sequential misses under a "
            f"{store['budget_mb']} MiB budget: nothing was measured"
        )
    if par["misses"] != seq["misses"]:
        raise ValueError(
            f"bench {name!r} parallel-arm {label} misses {par['misses']} != "
            f"sequential arm's {seq['misses']}: the fleet did not produce each "
            f"entry exactly once"
        )


def _validate_sweep_bench(bench: dict, doc: dict, min_speedup: float | None) -> None:
    for key in _REQUIRED_SWEEP_BENCH_KEYS:
        if key not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing key {key!r}"
            )
    for key in ("sequential_best_s", "parallel_best_s", "speedup"):
        value = bench[key]
        if not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(f"bench {bench['name']!r} has non-positive {key}")
    if bench["jobs"] < 2:
        raise ValueError(f"bench {bench['name']!r} has jobs < 2")
    _validate_store_block(bench, bench["frame_store"], "frame_store")
    # The artifact_store block arrived after frame_store; documents
    # written before it omit the block entirely.
    if "artifact_store" in bench:
        _validate_store_block(bench, bench["artifact_store"], "artifact_store")
    if min_speedup is not None:
        cpu_count = doc["host"]["cpu_count"]
        if isinstance(cpu_count, int) and cpu_count < 2:
            # A process pool cannot beat the sequential arm without a
            # second core; gating on speedup here would only certify
            # scheduler noise.  Log instead of silently passing so CI
            # transcripts show the gate was waived, not met.
            print(
                f"macro-bench: skipping --min-speedup gate for "
                f"{bench['name']!r} (host cpu_count={cpu_count} < 2; "
                f"observed {bench['speedup']:.2f}x)",
                file=sys.stderr,
            )
        elif bench["speedup"] < min_speedup:
            raise ValueError(
                f"bench {bench['name']!r} speedup {bench['speedup']:.2f}x "
                f"below required {min_speedup:.2f}x"
            )


def _validate_serve_bench(
    bench: dict, min_sustained_streams: int | None
) -> None:
    for key in _REQUIRED_SERVE_BENCH_KEYS:
        if key not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing key {key!r}"
            )
    slo = bench["slo_realtime_s"]
    if not isinstance(slo, (int, float)) or slo <= 0:
        raise ValueError(f"bench {bench['name']!r} has non-positive slo_realtime_s")
    rungs = bench["rungs"]
    if not isinstance(rungs, list) or not rungs:
        raise ValueError(f"bench {bench['name']!r} has no rungs")
    last_streams = 0
    for rung in rungs:
        for key in _REQUIRED_SERVE_RUNG_KEYS:
            if key not in rung:
                raise ValueError(
                    f"bench {bench['name']!r} rung missing key {key!r}"
                )
        if rung["streams"] <= last_streams:
            raise ValueError(
                f"bench {bench['name']!r} rungs are not strictly increasing"
            )
        last_streams = rung["streams"]
        p99 = rung["realtime_wait_p99_s"]
        if p99 is not None and (not isinstance(p99, (int, float)) or p99 < 0):
            raise ValueError(
                f"bench {bench['name']!r} rung {rung['streams']} has a "
                f"negative realtime_wait_p99_s"
            )
    sustained = bench["sustained_streams"]
    if not isinstance(sustained, int) or sustained < 0:
        raise ValueError(
            f"bench {bench['name']!r} sustained_streams must be a non-negative int"
        )
    if sustained and sustained not in {rung["streams"] for rung in rungs}:
        raise ValueError(
            f"bench {bench['name']!r} sustained_streams {sustained} "
            f"is not one of its rungs"
        )
    # The ladder runs in virtual time, so unlike the sweep speedup gate
    # this one never depends on host parallelism — no cpu_count waiver.
    if min_sustained_streams is not None and sustained < min_sustained_streams:
        raise ValueError(
            f"bench {bench['name']!r} sustained {sustained} streams at the "
            f"realtime p99 SLO, below required {min_sustained_streams}"
        )


def validate_macro_doc(
    doc: dict,
    min_speedup: float | None = None,
    min_sustained_streams: int | None = None,
) -> list[str]:
    """Schema check for ``BENCH_macro.json``; returns the bench names.

    Validation dispatches on each bench's ``kind`` (``"sweep"`` when
    absent).  ``min_speedup`` is the sweep CI gate: on multi-core runners
    the sweep-smoke job asserts the pool actually pays for itself; it is
    optional because the document is also written on hosts where parallel
    wall-clock wins are impossible (see ``host.cpu_count``).
    Every sweep bench's store blocks must also pass the exact reuse gate
    (see ``_validate_store_block``): equal misses in both arms, nothing
    evicted.  It is always on and has no host waiver — cache reuse does
    not need a second core.
    ``min_sustained_streams`` is the serve CI gate: the serve-smoke job
    asserts the scheduler still sustains a floor fleet size at the
    realtime p99 SLO (host-independent — the ladder runs in virtual time).
    """
    if not isinstance(doc, dict):
        raise ValueError("macro-bench document must be a JSON object")
    for key in _REQUIRED_TOP_KEYS:
        if key not in doc:
            raise ValueError(f"macro-bench document missing key {key!r}")
    if doc["schema_version"] != MACRO_SCHEMA_VERSION:
        raise ValueError(
            f"schema_version {doc['schema_version']!r} != {MACRO_SCHEMA_VERSION}"
        )
    if doc["suite"] != MACRO_SUITE_NAME:
        raise ValueError(f"suite {doc['suite']!r} != {MACRO_SUITE_NAME!r}")
    if "cpu_count" not in doc["host"]:
        raise ValueError("macro-bench host metadata missing 'cpu_count'")
    if not isinstance(doc["benches"], list) or not doc["benches"]:
        raise ValueError("macro-bench document has no benches")
    names = []
    for bench in doc["benches"]:
        kind = bench.get("kind", _DEFAULT_BENCH_KIND)
        if "results_identical" not in bench or "failures" not in bench:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} missing "
                f"results_identical/failures"
            )
        if bench["results_identical"] is not True:
            raise ValueError(
                f"bench {bench['name']!r} was not asserted result-identical"
            )
        if bench["failures"] != 0:
            raise ValueError(f"bench {bench['name']!r} recorded failures")
        if kind == "sweep":
            _validate_sweep_bench(bench, doc, min_speedup)
        elif kind == "serve":
            _validate_serve_bench(bench, min_sustained_streams)
        else:
            raise ValueError(
                f"bench {bench.get('name', '<unnamed>')!r} has unknown "
                f"kind {kind!r}"
            )
        names.append(bench["name"])
    if len(set(names)) != len(names):
        raise ValueError("macro-bench names are not unique")
    return names


def _format_sweep_bench(bench: dict) -> list[str]:
    lines = [
        f"{bench['name']:20s} {bench['workload']['shards']:>6d} "
        f"{bench['jobs']:>5d} {bench['sequential_best_s']:>8.2f}s "
        f"{bench['parallel_best_s']:>8.2f}s {bench['speedup']:>7.2f}x"
    ]
    def _arm(label: str, arm: dict) -> str:
        mode = arm.get("store_mode")
        tag = f"[{mode}] " if mode else ""
        return f"{label} {tag}{arm['hits']} hits / {arm['misses']} misses"

    store = bench.get("frame_store")
    if store:
        lines.append(
            f"  frame store ({store['budget_mb']} MiB): "
            f"{_arm('seq', store['sequential'])}, {_arm('par', store['parallel'])}"
        )
    artifact = bench.get("artifact_store")
    if artifact:
        speedup = artifact.get("enabled_speedup")
        speedup_text = f", {speedup:.2f}x vs disabled" if speedup else ""
        lines.append(
            f"  artifact store ({artifact['budget_mb']} MiB): "
            f"{_arm('seq', artifact['sequential'])}, "
            f"{_arm('par', artifact['parallel'])}{speedup_text}"
        )
    return lines


def _format_serve_bench(bench: dict) -> list[str]:
    lines = [
        f"{bench['name']:20s} sustains {bench['sustained_streams']} streams "
        f"at realtime p99 <= {bench['slo_realtime_s']:g}s"
    ]
    for rung in bench["rungs"]:
        p99 = rung["realtime_wait_p99_s"]
        p99_text = "   n/a" if p99 is None else f"{p99 * 1e3:5.0f}ms"
        sustained = (
            " <- sustained" if rung["streams"] == bench["sustained_streams"] else ""
        )
        lines.append(
            f"  {rung['streams']:>4d} streams: realtime p99 {p99_text}, "
            f"{rung['served_per_sim_second']:5.1f} served/s, "
            f"wall {rung['wall_s']:.2f}s{sustained}"
        )
    return lines


def format_macro_table(doc: dict) -> str:
    """Human-readable summary of a macro-bench document for the CLI."""
    lines = [
        f"{'bench':20s} {'shards':>6s} {'jobs':>5s} {'seq':>9s} {'par':>9s} {'speedup':>8s}"
    ]
    for bench in doc["benches"]:
        kind = bench.get("kind", _DEFAULT_BENCH_KIND)
        if kind == "serve":
            lines.extend(_format_serve_bench(bench))
        else:
            lines.extend(_format_sweep_bench(bench))
    lines.append(f"(host cpu_count={doc['host']['cpu_count']})")
    return "\n".join(lines)

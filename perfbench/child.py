"""One benchmark process: set a workload up, then run what its role asks.

Roles:

- ``probe``: set up, report readiness, tear down (a set-up time sample);
- ``reference``: print the reference digests of an untimed pass with
  the stores off;
- ``main``: set up, report readiness, then run timed passes for the
  requested seconds and print one JSON line with the results.

Readiness is a ``READY <perf_counter>`` line; ``perf_counter`` is one
system-wide clock on Linux, so the parent subtracts the moment it
started this process.  Run it through ``perfbench/run.py``.
"""

from __future__ import annotations

import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def _peak_rss_mb(untraced) -> float:
    """Peak RSS of this process plus the largest pool worker's peak
    private RSS (sampled during the passes), in MiB."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + max(p.extra.get("worker_rss_peak_mb", 0.0) for p in untraced)


def _write_spans(path: str, traced) -> None:
    import json

    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as out:
        for number, p in enumerate(traced):
            for layer, start, end, parent, n in p.spans:
                out.write(json.dumps(
                    {"pass": number, "layer": layer, "start": start,
                     "end": end, "parent": parent, "n": n}
                ) + "\n")


def _run_main(workload, args, expected) -> dict:
    import statistics
    import time

    from perfbench.report import layer_table

    if workload.warm_up_with_reference or expected is None:
        # An untimed first pass with the stores off: the reference when
        # no digest is recorded for this seed, and the warm-up that lets
        # lazy set-up (kernel caches, work buffers) finish untimed.
        reference = workload.reference()
        expected = expected or reference
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        began = time.perf_counter()
        # Tracing runs report no end-to-end metric, so their untraced
        # passes skip the speed probes and stay comparable with the
        # traced ones.
        passes.append((traced, workload.run_pass(traced, not args.trace, expected)))
        now = time.perf_counter()
        longest = max(longest, now - began)
        enough = now - start >= args.seconds and (not args.trace or len(passes) >= 2)
        if enough or now + longest > args.deadline:
            break
    workload.close()

    untraced = [p for traced, p in passes if not traced]
    traced_passes = [p for traced, p in passes if traced]
    all_passes = [p for _, p in passes]
    wall = statistics.median(p.wall_s for p in untraced)
    result = {
        "attempted": sum(p.attempted for p in all_passes),
        "failed": sum(p.failed for p in all_passes),
        "mismatches": sorted({m for p in all_passes for m in p.mismatches}),
        "passes": len(untraced),
        "traced_passes": len(traced_passes),
        "pass_s": wall,
        "pass_walls": [p.wall_s for p in untraced],
        "pass_cpus": [p.cpu_s for p in untraced],
        "pass_scaled_cpus": [p.scaled_cpu_s for p in untraced],
        "peak_rss_mb": _peak_rss_mb(untraced),
        "accuracy": untraced[0].extra.get("accuracy"),
    }
    extra = untraced[0].extra
    if workload.name == "fig6_par":
        result["shm_peak_mb"] = statistics.median(
            p.extra["shm_peak_mb"] for p in untraced
        )
    elif workload.name == "stream_adavp":
        result["stream_frames_per_s"] = extra["frames"] / wall
    elif workload.name == "serve_ladder":
        result["sustained_streams"] = extra["sustained_streams"]
        result["realtime_wait_p99_s"] = extra["realtime_wait_p99_s"]
    if traced_passes:
        orphans = sum(p.extra.get("shm_orphans", 0) for p in all_passes)
        result["layers"] = layer_table(
            traced_passes,
            [p.wall_s for p in untraced],
            getattr(workload, "pool_spawn_s", []),
            orphans,
        )
        path = os.path.join(
            os.getcwd(), ".perfbench", f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
        _write_spans(path, traced_passes)
        result["spans_file"] = os.path.relpath(path)
    return result


def main(argv: list[str] | None = None) -> int:
    import argparse
    import json
    import time

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("probe", "reference", "main"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--deadline", type=float, default=float("inf"),
                        help="time.perf_counter() value after which no pass "
                             "may end")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--expect", default=None,
                        help="reference digests as JSON")
    args = parser.parse_args(argv)

    from perfbench.workloads import SIZES, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size])
    if args.role == "reference":
        print(json.dumps(workload.reference()), flush=True)
        return 0
    workload.setup()
    print(f"READY {time.perf_counter()!r}", flush=True)
    if args.role == "probe":
        workload.close()
        return 0
    expected = json.loads(args.expect) if args.expect else None
    result = _run_main(workload, args, expected)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

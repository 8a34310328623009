"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig6_par --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it are a human-readable report.

The work happens in child processes (``perfbench/child.py``):

1. ``fig6_par`` computes its reference first, in an untimed sweep with
   the stores off, unless ``perfbench/reference.json`` records the
   digests for this seed;
2. three probes each start a fresh process and set the workload up, and
   the main process does the same before its timed passes; ``setup_s``
   is the median of the probes' set-up times at the reference speed,
   each from the host's speed measured just before and after it (the
   main process's own set-up time is printed as measured);
3. the main process of ``stream_adavp`` and ``serve_ladder`` runs one
   untimed pass first, which is their reference when none is recorded;
4. the main process runs timed passes for ``--seconds`` and checks every
   pass against the reference.

The end-to-end metrics are ``setup_s``, ``pass_scaled_cpu_s`` and
``peak_rss_mb``.  Both times are put at the reference speed.
``pass_scaled_cpu_s`` is the median over the untraced
passes of a pass's CPU seconds (this process plus the pool workers'
shards) at the reference speed of ``perfbench/calibrate.py``: each
shard, serve rung or stream step is scaled by the host's speed measured
just before and after it.  On a small shared host the speed of the same
work steps by a third and more between minutes, so raw wall and CPU
times of one run say more about the neighbours than about the program;
the report prints them too (the set-up samples, ``sweep_s``,
``ladder_s``, ``pass_cpu_s``).

``BENCHMARK.json`` lists ``fig6_par`` and ``serve_ladder``.
``stream_adavp`` runs the same way but is left out of that list: the
time budget of a full set of runs does not fit a third workload.

Without the program's sources (``src/repro``) next to it, it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench.calibrate import REFERENCE_S, kernel_s  # noqa: E402
from perfbench.report import END_TO_END, PER_LAYER, UNITS  # noqa: E402

WORKLOADS = ("fig6_par", "stream_adavp", "serve_ladder")
PROBES = 3
# Runs of the speed kernel on either side of a set-up probe.
KERNEL_RUNS = 5
# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 170.0
REFERENCE_FILE = os.path.join(HERE, "reference.json")


class ChildError(RuntimeError):
    pass


def _kernel_s() -> float:
    return statistics.median(kernel_s() for _ in range(KERNEL_RUNS))


def _child(role: str, args, extra: list[str], timeout: float, env: dict) -> tuple[float, list[str]]:
    """Run one child; returns (seconds from start to READY, stdout lines)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), role,
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        *extra,
    ]
    started = time.perf_counter()
    # A process group of its own, so that a timeout can stop the pool
    # workers along with the child.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{role} process ran past {timeout:.0f}s")
    if proc.returncode != 0:
        raise ChildError(f"{role} process exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [line for line in lines if line.startswith("READY ")]
    setup_s = float(ready[0].split()[1]) - started if ready else 0.0
    return setup_s, lines


def _recorded(args) -> dict | None:
    with open(REFERENCE_FILE) as handle:
        doc = json.load(handle)
    if args.seed != doc["seed"] or args.size != doc["size"]:
        return None
    return doc["digests"][args.workload]


def _print_report(args, measured_setup, setup_samples, main, failed_frac) -> None:
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    print(f"  setup samples (s; probes, then main): "
          f"{', '.join(f'{s:.3f}' for s in measured_setup)}; probes at the "
          f"reference speed: {', '.join(f'{s:.3f}' for s in setup_samples)}")
    walls = sorted(main["pass_walls"])
    print(f"  passes: {main['passes']} untraced, {main['traced_passes']} traced; "
          f"untraced wall (s) min {walls[0]:.4f} median {statistics.median(walls):.4f} "
          f"max {walls[-1]:.4f}")
    if not args.trace:
        scaled = sorted(main["pass_scaled_cpus"])
        print(f"  untraced CPU at the reference speed (s) min {scaled[0]:.4f} "
              f"median {statistics.median(scaled):.4f} max {scaled[-1]:.4f}")
    # The workload's own names for its end-to-end figures.
    named = [("setup_s", statistics.median(setup_samples), "s (reference)")]
    if args.workload == "fig6_par":
        # Measuring the host's speed around each shard lengthens the sweep.
        unit = "s, with speed probes" if not args.trace else "s"
        named += [("sweep_s", main["pass_s"], unit),
                  ("shm_peak_mb", main["shm_peak_mb"], "MB"),
                  ("accuracy", main["accuracy"], "ratio")]
    elif args.workload == "stream_adavp":
        named += [("stream_frames_per_s", main["stream_frames_per_s"], "1/s"),
                  ("accuracy", main["accuracy"], "ratio")]
    else:
        named += [("ladder_s", main["pass_s"], "s"),
                  ("sustained_streams", main["sustained_streams"], "count"),
                  ("realtime_wait_p99_s", main["realtime_wait_p99_s"], "s (virtual)")]
    if not args.trace:
        named += [("pass_cpu_s", statistics.median(main["pass_cpus"]), "s"),
                  ("pass_scaled_cpu_s", statistics.median(scaled), "s (reference)")]
    named += [("peak_rss_mb", main["peak_rss_mb"], "MB"),
              ("failed_frac", failed_frac, "ratio")]
    print("  end to end:")
    for name, value, unit in named:
        print(f"    {name:<24} {value:>14.6g} {unit}")
    if main.get("mismatches"):
        print(f"  MISMATCH against the reference: {', '.join(main['mismatches'])}")
    if "layers" in main:
        print("  per layer (median over traced passes; fig6_par sums self times "
              "over its workers):")
        for name, _, _ in PER_LAYER:
            print(f"    {name:<38} {main['layers'][name]:>14.6g} {UNITS[name]}")
        print(f"  spans written to {main['spans_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    begin = time.perf_counter()
    # The program's shared stores keep their lock files in the temp
    # directory; keep them inside the checkout.
    tmp = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - begin)

    try:
        expected = _recorded(args)
        if expected is None and args.workload == "fig6_par":
            _, lines = _child("reference", args, [], remaining(), env)
            expected = json.loads(lines[-1])
        # Set-up is short, so the kernel's median over several runs on
        # either side of it gives the host's speed.
        kernels = [_kernel_s()]
        measured = []
        for _ in range(PROBES):
            measured.append(_child("probe", args, [], remaining(), env)[0])
            kernels.append(_kernel_s())
        samples = [
            measured[i] * REFERENCE_S / ((kernels[i] + kernels[i + 1]) / 2)
            for i in range(PROBES)
        ]
        deadline = time.perf_counter() + remaining() - 10.0
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--deadline", repr(deadline)]
        if expected is not None:
            extra += ["--expect", json.dumps(expected)]
        setup_main, lines = _child("main", args, extra, remaining(), env)
    except ChildError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    main_result = json.loads(lines[-1])

    setup_s = statistics.median(samples)
    failed_frac = main_result["failed"] / main_result["attempted"]
    if args.trace:
        metrics = {name: main_result["layers"][name] for name, _, _ in PER_LAYER}
    else:
        values = {"setup_s": setup_s,
                  "pass_scaled_cpu_s": statistics.median(main_result["pass_scaled_cpus"]),
                  "peak_rss_mb": main_result["peak_rss_mb"]}
        metrics = {name: values[name] for name, _, _ in END_TO_END}
    _print_report(args, measured + [setup_main], samples, main_result, failed_frac)
    print(json.dumps({
        "correct": main_result["failed"] == 0 and not main_result["mismatches"],
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Usage::

    python -m repro scenarios                        # list scenario presets
    python -m repro show intersection --frame 10     # ASCII-render a frame
    python -m repro run adavp --scenario racetrack    # run a method on a clip
    python -m repro run adavp --trace run.jsonl       # ... exporting telemetry
    python -m repro obs mpdt-512 --scenario racetrack  # telemetry summary
    python -m repro compare --scenario city_street    # AdaVP vs baselines
    python -m repro fig 6                            # regenerate a paper figure
    python -m repro fig 6 --jobs 4                   # ... on a process pool
    python -m repro table 3 --jobs 4                 # regenerate a paper table
    python -m repro bench                            # hot-path microbenchmarks
    python -m repro bench --quick --output /tmp/b.json  # CI smoke variant
    python -m repro macrobench --jobs 4              # sweep-engine macro-bench
    python -m repro serve --streams 500 --seconds 5  # multi-stream serving sim
    python -m repro servebench --quick               # serving-fleet SLO ladder
    python -m repro profile                          # cProfile a short AdaVP run
    python -m repro profile mpdt-512 --frames 60 --out run.pstats

The figure/table subcommands use reduced default workloads so they finish
in minutes on a laptop; the benchmark suite (``pytest benchmarks/``) is the
authoritative regeneration path.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.runners import evaluate_run, make_method, run_method_on_clip
from repro.video.dataset import make_clip
from repro.video.library import list_scenarios


def _cmd_scenarios(_: argparse.Namespace) -> int:
    from repro.video.library import make_scenario

    print(f"{'scenario':24s} {'speed hint':>10}  composition")
    for name in list_scenarios():
        config = make_scenario(name)
        labels = ", ".join(sorted({s.label for s in config.spawns}))
        print(f"{name:24s} {config.content_speed_hint():>10.2f}  {labels}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    from repro.detection import SimulatedYOLOv3
    from repro.viz import frame_to_ascii

    clip = make_clip(args.scenario, seed=args.seed, num_frames=args.frame + 1)
    frame = clip.frame(args.frame)
    detector = SimulatedYOLOv3(args.setting, seed=0)
    result = detector.detect(clip.annotation(args.frame))
    print(frame_to_ascii(frame, width=args.width, boxes=result.detections))
    print(f"\n{len(result.detections)} detections by {result.profile_name} "
          f"(latency {result.latency * 1e3:.0f} ms); "
          f"{len(clip.annotation(args.frame).objects)} ground-truth objects")
    return 0


def _build_telemetry(args: argparse.Namespace):
    """(telemetry, jsonl_sink) for the run/obs commands, or (None, None).

    ``--trace`` exports spans + metrics to a JSONL file; ``--obs`` keeps
    them in memory for the human-readable summary.  Without either flag the
    pipelines get the default no-op telemetry and pay nothing.
    """
    from repro.obs import InMemorySink, JsonlSink, Telemetry

    if getattr(args, "trace", None):
        sink = JsonlSink(args.trace)
        return Telemetry(sink), sink
    if getattr(args, "obs", False):
        return Telemetry(InMemorySink()), None
    return None, None


def _cmd_run(args: argparse.Namespace) -> int:
    telemetry, jsonl = _build_telemetry(args)
    clip = make_clip(args.scenario, seed=args.seed, num_frames=args.frames)
    if telemetry is not None:
        clip.renderer.set_obs(telemetry)
    config = None
    if getattr(args, "tracker_tier", None) is not None:
        from repro.core.config import PipelineConfig

        config = PipelineConfig(tracker_tier=args.tracker_tier)
    method = make_method(args.method, config=config, obs=telemetry)
    run = run_method_on_clip(method, clip)
    accuracy, f1 = evaluate_run(run, clip)
    counts = run.source_counts()
    print(f"method:    {args.method}")
    print(f"clip:      {clip.name} ({clip.num_frames} frames)")
    print(f"accuracy:  {accuracy:.3f} (frames with F1>0.7)")
    print(f"mean F1:   {f1.mean():.3f}")
    print(f"frames:    {counts['detector']} detected / {counts['tracker']} tracked "
          f"/ {counts['held']} held")
    if run.profile_usage():
        print(f"settings:  {dict(sorted(run.profile_usage().items()))}")
    if telemetry is not None:
        telemetry.flush()
        if jsonl is not None:
            jsonl.close()
            print(f"trace:     wrote {args.trace}", file=sys.stderr)
        if getattr(args, "obs", False):
            print()
            print(telemetry.summary())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import InMemorySink, JsonlSink, Telemetry

    sink = InMemorySink()
    telemetry = Telemetry(sink)
    clip = make_clip(args.scenario, seed=args.seed, num_frames=args.frames)
    clip.renderer.set_obs(telemetry)
    run = run_method_on_clip(make_method(args.method, obs=telemetry), clip)
    telemetry.flush()
    counts = run.source_counts()
    print(f"telemetry for {args.method} on {clip.name} ({clip.num_frames} frames; "
          f"{counts['detector']} detected / {counts['tracker']} tracked "
          f"/ {counts['held']} held)")
    print()
    print(telemetry.summary())
    if args.trace:
        jsonl = JsonlSink(args.trace)
        for span in sink.spans:
            jsonl.record_span(span)
        jsonl.record_metrics(telemetry.metrics.snapshot())
        jsonl.close()
        print(f"\ntrace: wrote {args.trace}", file=sys.stderr)
    return 0


def _progress_printer(done: int, total: int, result) -> None:
    status = "ok" if result.ok else "FAILED"
    print(f"[{done}/{total}] {result.method} × {result.clip_name}: {status}",
          file=sys.stderr)


def _sweep_config(args: argparse.Namespace):
    """The shared :class:`PipelineConfig` for sweep commands, or ``None``.

    Only built when a flag actually deviates from the defaults, so the
    ``config=None`` code paths (and their golden traces) stay untouched.
    """
    frame_store_mb = getattr(args, "frame_store_mb", None)
    artifact_store_mb = getattr(args, "artifact_store_mb", None)
    if frame_store_mb is None and artifact_store_mb is None:
        return None
    from repro.core.config import PipelineConfig

    return PipelineConfig(
        frame_store_mb=frame_store_mb, artifact_store_mb=artifact_store_mb
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.parallel import run_sweep
    from repro.video.dataset import VideoSuite

    clip = make_clip(args.scenario, seed=args.seed, num_frames=args.frames)
    methods = ("adavp", "mpdt-512", "mpdt-608", "marlin-512", "no-tracking-512")
    suite = VideoSuite(name="compare", clips=[clip])
    sweep = run_sweep(methods, suite, config=_sweep_config(args), jobs=args.jobs,
                      progress=_progress_printer)
    sweep.raise_if_failed()
    rows = [
        (name, sweep.results[name].accuracy, sweep.results[name].mean_f1)
        for name in methods
    ]
    print(format_table(f"Comparison on {clip.name}", ("method", "accuracy", "mean_F1"), rows))
    return 0


_FIGURES = {
    "1": ("repro.experiments.fig1_detector_profile", "run", {"num_frames": 1000}),
    "2": ("repro.experiments.fig2_tracking_decay", "run", {}),
    "5": ("repro.experiments.fig5_fig9_traces", "run_fig5", {}),
    "9": ("repro.experiments.fig5_fig9_traces", "run_fig9", {}),
}


def _cmd_fig(args: argparse.Namespace) -> int:
    import importlib

    if args.number in _FIGURES:
        module_name, func_name, kwargs = _FIGURES[args.number]
        module = importlib.import_module(module_name)
        result = getattr(module, func_name)(**kwargs)
        print(result.report())
        return 0
    if args.number in ("6", "7", "8", "10", "11"):
        from repro.experiments.workloads import evaluation_suite

        suite = evaluation_suite(frames=args.frames)
        config = _sweep_config(args)
        if args.number == "6":
            from repro.experiments.fig6_overall import run

            print(run(suite=suite, config=config, jobs=args.jobs,
                      progress=_progress_printer).report())
        elif args.number in ("7", "8"):
            from repro.experiments.fig7_fig8_adaptation import run

            print(run(suite=suite, config=config, jobs=args.jobs).report())
        elif args.number == "10":
            from repro.experiments.fig10_fig11_thresholds import run_fig10

            print(run_fig10(suite=suite, config=config, jobs=args.jobs).report())
        else:
            from repro.experiments.fig10_fig11_thresholds import run_fig11

            print(run_fig11(suite=suite, config=config, jobs=args.jobs).report())
        return 0
    print(f"unknown figure {args.number!r}; know 1, 2, 5, 6, 7, 8, 9, 10, 11",
          file=sys.stderr)
    return 2


def _cmd_table(args: argparse.Namespace) -> int:
    if args.number == "2":
        from repro.experiments.table2_latency import run

        print(run(config=_sweep_config(args), jobs=args.jobs).report())
        return 0
    if args.number == "3":
        from repro.experiments.table3_energy import run
        from repro.experiments.workloads import evaluation_suite

        print(run(suite=evaluation_suite(frames=args.frames),
                  config=_sweep_config(args), jobs=args.jobs).report())
        return 0
    print(f"unknown table {args.number!r}; know 2 and 3", file=sys.stderr)
    return 2


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf import (
        build_document,
        format_table,
        run_benchmarks,
        validate_bench_doc,
        write_bench_json,
    )

    if args.list:
        from repro.perf.benches import BENCHES

        for name in BENCHES:
            print(name)
        return 0
    only = args.only.split(",") if args.only else None
    results = run_benchmarks(quick=args.quick, only=only)
    doc = build_document(results, quick=args.quick)
    validate_bench_doc(doc)
    write_bench_json(doc, args.output)
    print(format_table(doc))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


def _cmd_macrobench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.perf import (
        format_macro_table,
        run_macro_benchmark,
        validate_macro_doc,
        write_bench_json,
    )
    from repro.perf.macro import merge_sweep_bench

    new_doc = run_macro_benchmark(
        jobs=args.jobs,
        repeats=args.repeats,
        quick=args.quick,
        frame_store_mb=args.frame_store_mb,
        artifact_store_mb=args.artifact_store_mb,
    )
    # BENCH_macro.json also carries the serve ladder; replace only the
    # sweep bench (mirrors servebench's merge in the other direction).
    existing = None
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
    doc = merge_sweep_bench(existing, new_doc["benches"][0], quick=args.quick)
    validate_macro_doc(doc, min_speedup=args.min_speedup)
    write_bench_json(doc, args.output)
    print(format_macro_table(doc))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serve import ServeConfig

    kwargs = {}
    if getattr(args, "slo", None) is not None:
        kwargs["slo_realtime_s"] = args.slo
    return ServeConfig(
        duration_s=args.seconds,
        warmup_s=args.warmup,
        max_batch=args.max_batch,
        queue_depth=args.queue_depth,
        **kwargs,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.serve import fleet_configs, serve_fleet

    telemetry, jsonl = _build_telemetry(args)
    report = serve_fleet(
        fleet_configs(
            args.streams, seed=args.seed, realtime_fraction=args.realtime_frac
        ),
        _serve_config(args),
        obs=telemetry,
    )
    print(report.summary())
    # The replay-identity handle: two same-seed invocations must print
    # the same digest (compared verbatim by the CI serve-smoke job).
    print(f"digest:   {report.digest()}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report:   wrote {args.json}", file=sys.stderr)
    if telemetry is not None:
        telemetry.flush()
        if jsonl is not None:
            jsonl.close()
            print(f"trace:    wrote {args.trace}", file=sys.stderr)
        if getattr(args, "obs", False):
            print()
            print(telemetry.summary())
    return 0


def _cmd_servebench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.perf import format_macro_table, validate_macro_doc, write_bench_json
    from repro.serve.bench import merge_serve_bench, run_serve_benchmark

    bench = run_serve_benchmark(quick=args.quick, seed=args.seed)
    existing = None
    if os.path.exists(args.output):
        try:
            with open(args.output) as handle:
                existing = json.load(handle)
        except (OSError, ValueError):
            existing = None
    doc = merge_serve_bench(existing, bench, quick=args.quick)
    validate_macro_doc(doc, min_sustained_streams=args.min_sustained)
    write_bench_json(doc, args.output)
    print(format_macro_table(doc))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf.profile import profile_method

    report = profile_method(
        method=args.method,
        scenario=args.scenario,
        frames=args.frames,
        seed=args.seed,
        top=args.top,
        sort=args.sort,
        out=args.out,
    )
    print(report, end="")
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("scenarios", help="list scenario presets").set_defaults(
        func=_cmd_scenarios
    )

    show = sub.add_parser("show", help="ASCII-render one frame with detections")
    show.add_argument("scenario")
    show.add_argument("--frame", type=int, default=0)
    show.add_argument("--seed", type=int, default=7)
    show.add_argument("--setting", default="yolov3-512")
    show.add_argument("--width", type=int, default=96)
    show.set_defaults(func=_cmd_show)

    run = sub.add_parser("run", help="run one method over one clip")
    run.add_argument("method")
    run.add_argument("--scenario", default="intersection")
    run.add_argument("--frames", type=int, default=300)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="export telemetry (spans + metrics) as JSONL")
    run.add_argument("--obs", action="store_true",
                     help="print a telemetry summary after the run")
    run.add_argument("--tracker-tier", choices=("lk", "mve"), default=None,
                     help="override the tracker tier (default: the method's "
                          "own tier; 'mve' selects block-motion tracking)")
    run.set_defaults(func=_cmd_run)

    obs = sub.add_parser("obs", help="run one method and report its telemetry")
    obs.add_argument("method")
    obs.add_argument("--scenario", default="intersection")
    obs.add_argument("--frames", type=int, default=300)
    obs.add_argument("--seed", type=int, default=7)
    obs.add_argument("--trace", metavar="PATH", default=None,
                     help="also export the telemetry as JSONL")
    obs.set_defaults(func=_cmd_obs)

    compare = sub.add_parser("compare", help="AdaVP vs baselines on one clip")
    compare.add_argument("--scenario", default="intersection")
    compare.add_argument("--frames", type=int, default=300)
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--jobs", type=int, default=1,
                         help="process-pool workers (1 = in-process)")
    compare.add_argument("--frame-store-mb", type=int, default=None,
                         help="MiB budget for the shared frame store "
                              "(0 disables; default: leave store as-is)")
    compare.add_argument("--artifact-store-mb", type=int, default=None,
                         help="MiB budget for the shared pyramid/gradient "
                              "artifact store (0 disables; default: leave "
                              "store as-is)")
    compare.set_defaults(func=_cmd_compare)

    fig = sub.add_parser("fig", help="regenerate a paper figure")
    fig.add_argument("number")
    fig.add_argument("--frames", type=int, default=240)
    fig.add_argument("--jobs", type=int, default=1,
                     help="process-pool workers (1 = in-process)")
    fig.add_argument("--frame-store-mb", type=int, default=None,
                     help="MiB budget for the shared frame store, figs 6-11 "
                          "(0 disables; default: leave store as-is)")
    fig.add_argument("--artifact-store-mb", type=int, default=None,
                     help="MiB budget for the shared pyramid/gradient "
                          "artifact store, figs 6-11 (0 disables; default: "
                          "leave store as-is)")
    fig.set_defaults(func=_cmd_fig)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number")
    table.add_argument("--frames", type=int, default=240)
    table.add_argument("--jobs", type=int, default=1,
                       help="process-pool workers (1 = in-process)")
    table.add_argument("--frame-store-mb", type=int, default=None,
                       help="MiB budget for the shared frame store "
                            "(0 disables; default: leave store as-is)")
    table.add_argument("--artifact-store-mb", type=int, default=None,
                       help="MiB budget for the shared pyramid/gradient "
                            "artifact store (0 disables; default: leave "
                            "store as-is)")
    table.set_defaults(func=_cmd_table)

    bench = sub.add_parser(
        "bench", help="run the hot-path microbenchmarks and write BENCH_micro.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="fewer repeats (CI smoke); same workloads")
    bench.add_argument("--output", metavar="PATH", default="BENCH_micro.json")
    bench.add_argument("--only", metavar="NAMES", default=None,
                       help="comma-separated bench names (default: all)")
    bench.add_argument("--list", action="store_true",
                       help="print the known bench names and exit")
    bench.set_defaults(func=_cmd_bench)

    macro = sub.add_parser(
        "macrobench",
        help="benchmark the sweep engine (sequential vs --jobs N) "
             "and write BENCH_macro.json",
    )
    macro.add_argument("--jobs", type=int, default=4,
                       help="parallel arm's worker count")
    macro.add_argument("--repeats", type=int, default=3,
                       help="min-of-k repeats per arm")
    macro.add_argument("--quick", action="store_true",
                       help="smaller method grid and shorter clips (CI smoke)")
    macro.add_argument("--output", metavar="PATH", default="BENCH_macro.json")
    macro.add_argument("--min-speedup", type=float, default=None,
                       help="fail unless parallel/sequential speedup reaches "
                            "this (the CI gate on multi-core runners)")
    macro.add_argument("--frame-store-mb", type=int, default=128,
                       help="MiB budget for the shared frame store "
                            "(0 disables it for the whole macro-bench)")
    macro.add_argument("--artifact-store-mb", type=int, default=384,
                       help="MiB budget for the shared pyramid/gradient "
                            "artifact store (0 disables it for the whole "
                            "macro-bench); warmed artifacts are ~3x a raw "
                            "frame, so size it above --frame-store-mb")
    macro.set_defaults(func=_cmd_macrobench)

    serve = sub.add_parser(
        "serve",
        help="simulate N camera streams on one shared detector "
             "(deterministic; same seed => same digest)",
    )
    serve.add_argument("--streams", type=int, default=64)
    serve.add_argument("--seconds", type=float, default=10.0,
                       help="simulated (virtual-time) duration")
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--realtime-frac", type=float, default=0.25,
                       help="fraction of streams in the realtime QoS class")
    serve.add_argument("--warmup", type=float, default=0.0,
                       help="exclude requests submitted before this instant "
                            "from wait/SLO statistics")
    serve.add_argument("--max-batch", type=int, default=8)
    serve.add_argument("--queue-depth", type=int, default=256)
    serve.add_argument("--slo", type=float, default=None,
                       help="realtime admission-wait SLO in seconds")
    serve.add_argument("--json", metavar="PATH", default=None,
                       help="also dump the full fleet report as JSON")
    serve.add_argument("--trace", metavar="PATH", default=None,
                       help="export telemetry (spans + metrics) as JSONL")
    serve.add_argument("--obs", action="store_true",
                       help="print a telemetry summary after the run")
    serve.set_defaults(func=_cmd_serve)

    servebench = sub.add_parser(
        "servebench",
        help="climb the serving-fleet ladder and record sustained streams "
             "at the realtime p99 SLO in BENCH_macro.json",
    )
    servebench.add_argument("--quick", action="store_true",
                            help="shorter ladder and runs (CI smoke)")
    servebench.add_argument("--seed", type=int, default=7)
    servebench.add_argument("--output", metavar="PATH", default="BENCH_macro.json")
    servebench.add_argument("--min-sustained", type=int, default=None,
                            help="fail unless the ladder sustains at least this "
                                 "many streams (the CI gate; host-independent)")
    servebench.set_defaults(func=_cmd_servebench)

    profile = sub.add_parser(
        "profile",
        help="cProfile a short single-clip run and print the top hotspots",
    )
    profile.add_argument("method", nargs="?", default="adavp")
    profile.add_argument("--scenario", default="racetrack")
    profile.add_argument("--frames", type=int, default=120)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--top", type=int, default=15,
                         help="number of hotspot rows to print")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime", "ncalls"))
    profile.add_argument("--out", metavar="PATH", default=None,
                         help="also dump raw .pstats for later analysis")
    profile.set_defaults(func=_cmd_profile)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

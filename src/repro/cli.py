"""Command-line interface: the framework's front door.

Subcommands mirror the paper's flow:

* ``repro list`` — Table II benchmark inventory;
* ``repro estimate BENCH [--set k=v ...]`` — estimate one design point;
* ``repro explore BENCH --points N`` — design space exploration + Pareto,
  with ``--workers``/``--shards``/``--auto-shards`` for the parallel
  engine, ``--checkpoint-dir``/``--resume`` for kill/resume, and
  ``--shard-range A:B`` for multi-host range sweeps (see
  ``docs/runtime.md``);
* ``repro merge-checkpoints DIR`` — reunite a (multi-host) checkpoint
  directory into the full point set and Pareto front, estimating nothing;
* ``repro speedup BENCH`` — best design vs the modeled CPU (Figure 6);
* ``repro codegen BENCH -o FILE`` — emit MaxJ for a design point;
* ``repro power BENCH`` — power/energy estimate (extension);
* ``repro analyze BENCH`` — bottleneck + roofline diagnosis (extension);
* ``repro report -o FILE`` — consolidated evaluation report.

``estimate``/``explore``/``speedup``/``codegen`` accept ``--trace FILE``
(write a Chrome trace-event file — open in chrome://tracing or Perfetto),
``--trace-jsonl FILE`` (stream spans incrementally with bounded memory,
optionally capped via ``--span-cap N``), and ``--metrics`` (print
counter/histogram summaries); see ``docs/observability.md``. The
estimating commands also accept ``--no-cache`` to disable the estimation
memoization/batching layer (bit-identical results; see
``docs/estimation_performance.md``).

Invoke as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import obs
from .apps import all_benchmarks, get_benchmark
from .codegen import generate_maxj
from .dse import explore, merge_checkpoints
from .estimation import Estimator, default_estimator
from .estimation.power import estimate_power
from .runtime import CheckpointError, ConservationError
from .sim import simulate


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _benchmark_name(name: str) -> str:
    """argparse type for a benchmark argument: a registered Table II name."""
    names = [b.name for b in all_benchmarks()]
    if name not in names:
        raise argparse.ArgumentTypeError(
            f"unknown benchmark {name!r} (choose from: {', '.join(names)})"
        )
    return name


def _positive_int(text: str) -> int:
    """argparse type for a point budget: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _parse_overrides(pairs: List[str]) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
            continue
        try:
            out[key] = int(value)
        except ValueError:
            try:
                # Float passthrough for parameters that accept one
                # (e.g. capacity fractions); integer-only parameters
                # reject it downstream via the space's legality check.
                out[key] = float(value)
            except ValueError:
                raise SystemExit(
                    f"--set {key}: expected an integer, float, or "
                    f"true/false, got {value!r}"
                ) from None
    return out


def _estimator_for(args, estimator: Optional[Estimator]) -> Estimator:
    """The injected estimator, or the shared default honoring ``--no-cache``.

    ``--no-cache`` shares the same trained models (no recharacterization)
    but disables the estimation memoization layer — the escape hatch that
    demonstrates cached results are bit-identical (see
    ``docs/estimation_performance.md``).
    """
    if estimator is not None:
        return estimator
    return default_estimator(cache=not getattr(args, "no_cache", False))


def _resolve_params(bench, overrides: Dict[str, object]) -> Dict[str, object]:
    dataset = bench.default_dataset()
    params = bench.default_params(dataset)
    unknown = set(overrides) - set(params)
    if unknown:
        raise SystemExit(
            f"unknown parameters for {bench.name}: {sorted(unknown)} "
            f"(valid: {sorted(params)})"
        )
    coerced = dict(overrides)
    for key, value in overrides.items():
        default = params[key]
        if (
            isinstance(value, float)
            and isinstance(default, int)
            and not isinstance(default, bool)
        ):
            if not value.is_integer():
                raise SystemExit(
                    f"--set {key}: {bench.name} expects an integer "
                    f"(got {value!r})"
                )
            coerced[key] = int(value)
    params.update(coerced)
    return params


def cmd_list(args, out) -> int:
    """``repro list``: print the Table II benchmark inventory."""
    print(f"{'name':14s} {'description':45s} dataset", file=out)
    for bench in all_benchmarks():
        ds = ", ".join(f"{k}={v:,}" for k, v in bench.default_dataset().items())
        print(f"{bench.name:14s} {bench.description:45s} {ds}", file=out)
    return 0


def cmd_estimate(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro estimate``: estimate one design point."""
    bench = get_benchmark(args.benchmark)
    params = _resolve_params(bench, _parse_overrides(args.set or []))
    design = bench.build(bench.default_dataset(), **params)
    estimator = _estimator_for(args, estimator)
    est = estimator.estimate(design)
    util = est.utilization()
    print(f"design point: {params}", file=out)
    print(f"cycles : {est.cycles:,.0f}  ({est.seconds * 1e3:.3f} ms)", file=out)
    print(f"ALMs   : {est.alms:,}  ({100 * util['alms']:.1f}%)", file=out)
    print(f"DSPs   : {est.dsps:,}  ({100 * util['dsps']:.1f}%)", file=out)
    print(f"BRAMs  : {est.brams:,}  ({100 * util['brams']:.1f}%)", file=out)
    print(f"fits   : {est.fits()}", file=out)
    return 0


def _parse_shard_range(text: str):
    """Parse ``--shard-range A:B`` into an ``(A, B)`` half-open tuple."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise SystemExit(
            f"--shard-range expects A:B (half-open, e.g. 0:4), got {text!r}"
        )
    try:
        bounds = (int(lo), int(hi))
    except ValueError:
        raise SystemExit(
            f"--shard-range expects integer bounds A:B, got {text!r}"
        ) from None
    if bounds[0] < 0 or bounds[1] <= bounds[0]:
        raise SystemExit(
            f"--shard-range expects 0 <= A < B, got {text!r}"
        )
    return bounds


def _parse_parallel_args(args):
    """Validate the --workers/--shards/--checkpoint-dir/... combinations."""
    if args.workers < 1:
        raise SystemExit(
            f"--workers expects a positive integer (got {args.workers}); "
            "use --workers 1 for the serial path"
        )
    if args.shards is not None and args.shards < 1:
        raise SystemExit(
            f"--shards expects a positive integer (got {args.shards}); "
            "omit it to default to one shard per worker, or use "
            "--auto-shards for cost-model micro-sharding"
        )
    shards = args.shards
    if getattr(args, "auto_shards", False):
        if shards is not None:
            raise SystemExit(
                "--auto-shards and --shards are mutually exclusive: "
                "pick a fixed shard count or let the cost model size them"
            )
        shards = "auto"
    shard_range = None
    if getattr(args, "shard_range", None):
        shard_range = _parse_shard_range(args.shard_range)
    checkpoint_dir = args.checkpoint_dir
    resume = False
    if args.resume:
        if checkpoint_dir and checkpoint_dir != args.resume:
            raise SystemExit(
                "--resume DIR already names the checkpoint directory; "
                "drop --checkpoint-dir (or make them match)"
            )
        checkpoint_dir = args.resume
        resume = True
    if shard_range is not None and checkpoint_dir is None:
        raise SystemExit(
            "--shard-range requires --checkpoint-dir: ranged sweeps only "
            "make sense when their shards land somewhere "
            "'repro merge-checkpoints' can reunite them"
        )
    return shards, shard_range, checkpoint_dir, resume


def _print_pareto(result, show: int, out) -> None:
    """The explore/merge Pareto table (``--show`` rows)."""
    print(f"{'cycles':>14s} {'ALMs':>9s} {'BRAMs':>6s}  params", file=out)
    for point in result.pareto_sample(show):
        print(
            f"{point.cycles:14,.0f} {point.estimate.alms:9,} "
            f"{point.estimate.brams:6,}  {point.params}",
            file=out,
        )


def cmd_explore(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro explore``: sample the design space and print the Pareto front."""
    shards, shard_range, checkpoint_dir, resume = _parse_parallel_args(args)
    bench = get_benchmark(args.benchmark)
    estimator = _estimator_for(args, estimator)
    try:
        result = explore(
            bench, estimator, max_points=args.points, seed=args.seed,
            shards=shards, workers=args.workers,
            checkpoint_dir=checkpoint_dir, resume=resume,
            shard_range=shard_range,
        )
    except CheckpointError as exc:
        raise SystemExit(str(exc)) from None
    parallel = ""
    if result.shards > 1 or result.workers > 1 or result.restored:
        parallel = f"; {result.shards} shards x {result.workers} workers"
        if result.shard_range is not None:
            lo, hi = result.shard_range
            parallel += (
                f" (range {lo}:{hi} of {result.total_shards} shards)"
            )
        if result.steals or result.requeued:
            parallel += (
                f"; {result.steals} steals, {result.requeued} requeued"
            )
        if result.restored:
            parallel += f"; {result.restored} restored from checkpoint"
    print(
        f"explored {len(result.points)} points "
        f"({1e3 * result.seconds_per_point:.2f} ms/point); "
        f"{len(result.valid_points)} fit; "
        f"{len(result.pareto)} Pareto-optimal" + parallel,
        file=out,
    )
    _print_pareto(result, args.show, out)
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            names = list(result.points[0].params) if result.points else []
            writer.writerow(["cycles", "alms", "dsps", "brams", "valid"] + names)
            for p in result.points:
                writer.writerow(
                    [p.cycles, p.estimate.alms, p.estimate.dsps,
                     p.estimate.brams, int(p.valid)]
                    + [p.params[k] for k in names]
                )
        print(f"wrote {len(result.points)} points to {args.csv}", file=out)
    return 0


def cmd_merge_checkpoints(
    args, out, estimator: Optional[Estimator] = None
) -> int:
    """``repro merge-checkpoints``: reunite a checkpoint dir, estimate nothing.

    The collection step of a multi-host sweep: after N hosts ran
    ``repro explore ... --shard-range`` into one shared directory, this
    loads every shard file, re-plans the manifest's full partition, and
    prints the same summary/Pareto table a single-host explore would
    have. A missing range or duplicated shard fails loudly.
    """
    estimator = _estimator_for(args, estimator)
    try:
        result = merge_checkpoints(args.directory, estimator)
    except (CheckpointError, ConservationError) as exc:
        raise SystemExit(str(exc)) from None
    print(
        f"merged {len(result.points)} points from {result.shards} shards "
        f"in {args.directory}; {len(result.valid_points)} fit; "
        f"{len(result.pareto)} Pareto-optimal",
        file=out,
    )
    _print_pareto(result, args.show, out)
    return 0


def cmd_speedup(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro speedup``: best design vs the modeled CPU baseline."""
    bench = get_benchmark(args.benchmark)
    estimator = _estimator_for(args, estimator)
    result = explore(bench, estimator, max_points=args.points, seed=args.seed)
    best = result.best
    if best is None:
        print("no valid design found", file=out)
        return 1
    design = bench.build(result.dataset, **best.params)
    sim = simulate(design)
    cpu_s = bench.cpu_time(result.dataset)
    print(f"best design: {best.params}", file=out)
    print(f"FPGA (simulated): {sim.seconds * 1e3:.2f} ms", file=out)
    print(f"CPU (modeled)   : {cpu_s * 1e3:.2f} ms", file=out)
    print(f"speedup         : {cpu_s / sim.seconds:.2f}x", file=out)
    return 0


def cmd_codegen(args, out) -> int:
    """``repro codegen``: emit MaxJ for one design point."""
    bench = get_benchmark(args.benchmark)
    params = _resolve_params(bench, _parse_overrides(args.set or []))
    design = bench.build(bench.default_dataset(), **params)
    source = generate_maxj(design)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(source)
        print(f"wrote {len(source.splitlines())} lines to {args.output}",
              file=out)
    else:
        print(source, file=out)
    return 0


def cmd_power(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro power``: power/energy estimate (extension)."""
    bench = get_benchmark(args.benchmark)
    params = _resolve_params(bench, _parse_overrides(args.set or []))
    design = bench.build(bench.default_dataset(), **params)
    estimator = _estimator_for(args, estimator)
    area = estimator.estimate_area(design)
    cycles = estimator.estimate_cycles(design)
    power = estimate_power(design, area, cycles, estimator.board)
    print(f"design point : {params}", file=out)
    print(f"total power  : {power.total_w:.2f} W "
          f"(static {power.static_w:.2f}, dynamic {power.dynamic_w:.2f}, "
          f"DRAM {power.dram_w:.2f})", file=out)
    print(f"activity     : {power.activity:.2f}", file=out)
    print(f"energy/run   : {power.energy_j:.4f} J "
          f"({power.runtime_s * 1e3:.2f} ms)", file=out)
    return 0


def cmd_analyze(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro analyze``: bottleneck + roofline diagnosis (extension)."""
    from .analysis import analyze, diagnose
    from .sim import simulate as _simulate

    bench = get_benchmark(args.benchmark)
    params = _resolve_params(bench, _parse_overrides(args.set or []))
    dataset = bench.default_dataset()
    design = bench.build(dataset, **params)
    estimator = _estimator_for(args, estimator)
    diag = diagnose(design, estimator)
    print(diag.summary(), file=out)
    flops = bench.flops(dataset)
    if flops > 0:
        runtime = _simulate(design).seconds
        point = analyze(design, flops, runtime, estimator.board)
        print(
            f"roofline: intensity {point.flops_per_byte:.2f} flop/byte; "
            f"datapath peak {point.peak_flops / 1e9:.1f} GFLOP/s; "
            f"bandwidth roof {point.bandwidth_roof_flops / 1e9:.1f} GFLOP/s; "
            f"achieved {point.achieved_flops / 1e9:.2f} GFLOP/s "
            f"({100 * point.efficiency:.0f}% of attainable)",
            file=out,
        )
    return 0


def cmd_report(args, out, estimator: Optional[Estimator] = None) -> int:
    """``repro report``: consolidated evaluation report."""
    from .report import build_report

    if args.workers < 1:
        raise SystemExit(
            f"--workers expects a positive integer (got {args.workers}); "
            "use --workers 1 for the serial path"
        )
    estimator = _estimator_for(args, estimator)
    text = build_report(estimator, dse_points=args.points,
                        workers=args.workers)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote report to {args.output}", file=out)
    else:
        print(text, file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = _Parser(
        prog="repro",
        description="DHDL reproduction: estimate, explore, and generate "
        "FPGA accelerator designs (ISCA 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by the instrumented pipeline commands.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace", metavar="FILE.json",
        help="write a Chrome trace-event file of the run "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
    )
    obs_flags.add_argument(
        "--trace-jsonl", metavar="FILE.jsonl",
        help="stream spans incrementally to a JSONL file (bounded "
        "memory; suits paper-scale sweeps)",
    )
    obs_flags.add_argument(
        "--span-cap", type=int, default=None, metavar="N",
        help="keep at most N finished spans in memory (spans beyond the "
        "cap still stream to --trace-jsonl)",
    )
    obs_flags.add_argument(
        "--metrics", action="store_true",
        help="print counter/histogram summaries after the command",
    )

    # Estimation-cache escape hatch shared by the estimating commands.
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="disable the estimation memoization/batching layer "
        "(bit-identical results, cold hot path; see "
        "docs/estimation_performance.md)",
    )

    sub.add_parser("list", help="list the Table II benchmarks")

    def add_bench(p):
        p.add_argument("benchmark", type=_benchmark_name,
                       help="benchmark name (see 'repro list')")

    p = sub.add_parser("estimate", help="estimate one design point",
                       parents=[obs_flags, cache_flags])
    add_bench(p)
    p.add_argument("--set", nargs="*", metavar="K=V",
                   help="override design parameters")

    p = sub.add_parser("explore", help="design space exploration",
                       parents=[obs_flags, cache_flags])
    add_bench(p)
    p.add_argument("--points", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--show", type=int, default=8,
                   help="Pareto points to print")
    p.add_argument("--csv", help="dump all points to a CSV file")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (forked after estimator "
                   "training; 1 = serial in-process)")
    p.add_argument("--shards", type=int, default=None,
                   help="sampling shards (default: one per worker; any "
                   "value yields identical points for a fixed seed)")
    p.add_argument("--auto-shards", action="store_true",
                   help="size micro-shards from the runtime cost model "
                   "(shards >> workers, enables work stealing)")
    p.add_argument("--shard-range", metavar="A:B",
                   help="sweep only shards A..B-1 of the full partition "
                   "(multi-host: disjoint ranges into one "
                   "--checkpoint-dir, then 'repro merge-checkpoints')")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="write per-shard JSONL checkpoints to DIR")
    p.add_argument("--resume", metavar="DIR",
                   help="resume a killed sweep from DIR's checkpoints "
                   "(skips completed work)")

    p = sub.add_parser(
        "merge-checkpoints",
        help="merge a (multi-host) checkpoint directory into the full "
        "point set — no estimation",
        parents=[obs_flags, cache_flags],
    )
    p.add_argument("directory", metavar="DIR",
                   help="checkpoint directory written by one or more "
                   "'repro explore --checkpoint-dir' runs")
    p.add_argument("--show", type=int, default=8,
                   help="Pareto points to print")

    p = sub.add_parser("speedup", help="best design vs the CPU baseline",
                       parents=[obs_flags, cache_flags])
    add_bench(p)
    p.add_argument("--points", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sim-trace", metavar="FILE.json",
                   help="write a simulated-time Chrome trace of the best "
                   "design's controller schedule (1 cycle = 1 us tick; "
                   "open in https://ui.perfetto.dev)")

    p = sub.add_parser("codegen", help="emit MaxJ for a design point",
                       parents=[obs_flags])
    add_bench(p)
    p.add_argument("--set", nargs="*", metavar="K=V")
    p.add_argument("-o", "--output", help="output file (default: stdout)")

    p = sub.add_parser("power", help="power/energy estimate (extension)",
                       parents=[cache_flags])
    add_bench(p)
    p.add_argument("--set", nargs="*", metavar="K=V")

    p = sub.add_parser(
        "analyze", help="bottleneck + roofline diagnosis (extension)",
        parents=[cache_flags],
    )
    add_bench(p)
    p.add_argument("--set", nargs="*", metavar="K=V")

    p = sub.add_parser("report", help="consolidated evaluation report",
                       parents=[cache_flags])
    p.add_argument("--points", type=_positive_int, default=400,
                   help="DSE budget per benchmark")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the report's DSE sweeps")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    return parser


def _dispatch(args, out, estimator: Optional[Estimator]) -> int:
    if args.command == "list":
        return cmd_list(args, out)
    if args.command == "estimate":
        return cmd_estimate(args, out, estimator)
    if args.command == "explore":
        return cmd_explore(args, out, estimator)
    if args.command == "merge-checkpoints":
        return cmd_merge_checkpoints(args, out, estimator)
    if args.command == "speedup":
        return cmd_speedup(args, out, estimator)
    if args.command == "codegen":
        return cmd_codegen(args, out)
    if args.command == "power":
        return cmd_power(args, out, estimator)
    if args.command == "analyze":
        return cmd_analyze(args, out, estimator)
    if args.command == "report":
        return cmd_report(args, out, estimator)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: Optional[List[str]] = None, out=None,
         estimator: Optional[Estimator] = None) -> int:
    """CLI entry point; ``out`` and ``estimator`` are injectable for tests."""
    args = build_parser().parse_args(argv)
    out = out or sys.stdout
    trace_file = getattr(args, "trace", None)
    stream_file = getattr(args, "trace_jsonl", None)
    sim_trace_file = getattr(args, "sim_trace", None)
    span_cap = getattr(args, "span_cap", None)
    if span_cap is not None and span_cap < 0:
        raise SystemExit(
            f"--span-cap expects a non-negative integer (got {span_cap})"
        )
    want_metrics = bool(getattr(args, "metrics", False))
    if not (trace_file or stream_file or sim_trace_file or want_metrics):
        return _dispatch(args, out, estimator)

    obs.reset()
    obs.enable(
        trace=bool(trace_file or stream_file or sim_trace_file),
        metrics=want_metrics,
    )
    stream = None
    if stream_file:
        stream = obs.stream_to_jsonl(stream_file, span_cap=span_cap)
    elif span_cap is not None:
        obs.tracer().span_cap = span_cap
    try:
        code = _dispatch(args, out, estimator)
    finally:
        obs.disable()
        if stream is not None:
            obs.stop_streaming()
            print(
                f"streamed {stream.written} spans/instants to "
                f"{stream_file}",
                file=out,
            )
        if want_metrics:
            print(obs.metrics().summary_table(), file=out)
            if obs.tracer().spans:
                print(obs.span_summary(obs.tracer()), file=out)
        if trace_file:
            obs.write_chrome_trace(obs.tracer(), trace_file)
            print(
                f"wrote {len(obs.tracer().spans)} spans to {trace_file} "
                "(open in chrome://tracing or https://ui.perfetto.dev)",
                file=out,
            )
        if sim_trace_file:
            written = obs.write_sim_chrome_trace(
                obs.tracer(), sim_trace_file
            )
            print(
                f"wrote {written} simulated-time slices to "
                f"{sim_trace_file} (1 cycle = 1 us; open in "
                "https://ui.perfetto.dev)",
                file=out,
            )
        obs.tracer().span_cap = None
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

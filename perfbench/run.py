"""Repository benchmark: DSE sweep, parallel checkpointed sweep, report flow.

Run from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric named in ``BENCHMARK.json``;
``--trace 1`` runs one untraced and one traced session of the same work
and prints every per-layer metric instead. Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_traces"
WORKLOADS = ("sweep", "report")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def host(seed: int, calibrations) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "calibration_s": median_of(calibrations),
    }


def probe_setup(flows, ops, readings) -> list:
    """Time fresh interpreters from launch to a trained estimator.

    Each probe is a measured window: ``setup_s`` is scaled to the
    reference host's speed by readings taken just before and after it
    (``flows.Window``), which also go into ``readings``.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(SETUP_PROBES):
        before = flows.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "probe.py")],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ops.check(proc.returncode == 0 and line.strip(),
                     f"set-up probe exited with {proc.returncode}"):
            after = flows.calibrate()
            readings += [before, after]
            factor = flows.CALIBRATION_REFERENCE_S / ((before + after) / 2)
            probes.append(dict(json.loads(line), setup_s=ready * factor))
    return probes


# -- sessions ----------------------------------------------------------------


class Session:
    """The passes of one or more sessions, by flow."""

    def __init__(self) -> None:
        self.sweep = []
        self.parallel = []
        self.report = []

    def serial_explores(self):
        """Every serial explore pass: sweeps and the report's explores."""
        return self.sweep + [r.explore for r in self.report]

    def extend(self, other: "Session") -> None:
        self.sweep += other.sweep
        self.parallel += other.parallel
        self.report += other.report


def run_session(flows, ctx, workload: str, seconds: float, min_passes: int):
    """Repeat the workload's main flow, then run the other flows."""
    session = Session()
    main = session.sweep if workload == "sweep" else session.report
    start = time.perf_counter()
    while len(main) < min_passes or time.perf_counter() - start < seconds:
        if workload == "sweep":
            main.append(flows.serial_pass(
                ctx, flows.sweep_jobs(ctx), keep_results=not main))
        else:
            main.append(flows.report_pass(ctx))
    for _ in range(flows.COMPANION_PARALLEL_PASSES):
        session.parallel.append(flows.parallel_pass(ctx))
    if workload == "sweep":
        for _ in range(flows.COMPANION_REPORT_PASSES):
            session.report.append(flows.report_pass(ctx))
    check_session(flows, ctx, session)
    return session


def check_session(flows, ctx, session: Session) -> None:
    """Output checks; they run outside every measured window."""
    flows.check_same(ctx, [p.signatures for p in session.sweep],
                     "sweep exploration")
    if session.sweep:
        flows.check_uncached(ctx, session.sweep[0])
        session.sweep[0].results.clear()
    flows.check_same(ctx, [p.signature for p in session.parallel],
                     "parallel exploration")
    if session.parallel:
        flows.check_serial(ctx, session.parallel[0])
    flows.check_same(ctx, [(r.fronts, r.errors_pct) for r in session.report],
                     "report Pareto designs and errors")


def median_of(values):
    return statistics.median(values) if values else None


def end_to_end(flows, session: Session, probes) -> dict:
    """Every end-to-end metric; times are at the reference host's speed."""
    rates = [p.points_per_s for p in session.sweep] or [
        r.explore.points_per_s for r in session.report]
    errors = session.report[0].errors_pct if session.report else {}
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "setup_s": median_of([p["setup_s"] for p in probes]),
        "peak_rss_mb": usage / 1024,
        "sweep_points_per_s": median_of(rates),
        "sweep_parallel_points_per_s": median_of(
            [p.points_per_s for p in session.parallel if p.wall_s]),
        "resume_s": median_of(
            [s for p in session.parallel for s in p.resume_s]),
        "report_s": median_of([r.wall_s for r in session.report]),
    }
    for name in flows.ERROR_METRICS:
        metrics[f"{name}_error_pct"] = errors.get(name)
    return metrics


def per_layer(tracing, ctx, tracer, traced, overhead, probes):
    """Per-layer metrics of the traced sessions."""
    us = tracing.us_per
    self_s, calls = tracer.self_s, tracer.calls
    serial = traced.serial_explores()
    points = sum(p.points for p in serial)
    hits, lookups = {}, {}
    for p in serial:
        for stats in p.caches:
            for name, s in stats.items():
                hits[name] = hits.get(name, 0) + s["hits"]
                lookups[name] = lookups.get(name, 0) + s["hits"] + s["misses"]
    attributed = sum(self_s.values())
    unattributed = ctx.window_s - attributed
    ctx.ops.check(unattributed >= -1e-6 and not tracer._stack,
                  f"layer self times ({attributed:.6f} s) exceed the traced "
                  f"wall ({ctx.window_s:.6f} s)")
    metrics = {
        "setup.import_s": median_of([p["import_s"] for p in probes]),
        "estimation.characterize_s": median_of(
            [p["characterize_s"] for p in probes]),
        "estimation.train_s": median_of([p["train_s"] for p in probes]),
        "params.sample_s": self_s["params.sample"],
        "apps.build_us_per_point": us(self_s["apps.build"],
                                      calls["apps.build"]),
        "ir.finalize_us_per_point": us(self_s["ir.finalize"],
                                       calls["ir.finalize"]),
        "apps.illegal_ratio": (tracer.illegal_builds / calls["apps.build"]
                               if calls["apps.build"] else 0.0),
        "estimation.cycles_us_per_point": us(self_s["estimation.cycles"],
                                             calls["estimation.cycles"]),
        "estimation.raw_area_us_per_point": us(
            self_s["estimation.raw_area"], calls["estimation.raw_area"]),
        "estimation.nn_us_per_point": us(self_s["estimation.nn"],
                                         tracer.nn_rows),
        "estimation.batch_us_per_point": us(
            self_s["estimation.estimate_many"], tracer.batch_designs),
        "dse.explore_self_s": self_s["dse.explore"],
        "dse.pareto_s": self_s["dse.pareto"],
        "runtime.plan_s": self_s["runtime.plan"],
        "runtime.run_plan_self_s": self_s["runtime.run_plan"],
        "runtime.worker_busy_s": tracer.busy_s,
        "runtime.worker_utilization": (
            tracer.busy_s / tracer.pool_capacity_s
            if tracer.pool_capacity_s else 0.0),
        "runtime.merge_s": self_s["runtime.merge"],
        "runtime.checkpoint_bytes": sum(
            p.checkpoint_bytes for p in traced.parallel),
        "runtime.checkpoint_load_s": (self_s["runtime.checkpoint_load"]
                                      + self_s["runtime.checkpoint_hydrate"]),
        "obs.calls_per_point": tracer.obs_calls / points if points else 0.0,
        "obs.histogram_observations": sum(
            r.histogram_observations for r in traced.report),
        "sim.simulate_us_per_design": us(self_s["sim.simulate"],
                                         calls["sim.simulate"]),
        "synth.synthesize_us_per_design": us(
            self_s["synth.synthesize"], calls["synth.synthesize"]),
        "traced_wall_s": ctx.window_s,
        "unattributed_s": unattributed,
        "trace_overhead_ratio": overhead,
    }
    for name in ("template", "schedule", "points"):
        metrics[f"estimation.cache.{name}.hit_ratio"] = (
            hits.get(name, 0) / lookups[name] if lookups.get(name) else 0.0)
    for name in tracing.SPAN_NAMES:
        metrics[f"self_s.{name}"] = self_s[name]
    return metrics


def app_us_per_point(session: Session) -> dict:
    """Serial explore wall per legal point, by app."""
    totals = {}
    for p in session.serial_explores():
        for app, (wall, points) in p.apps.items():
            t = totals.setdefault(app, [0.0, 0])
            t[0] += wall
            t[1] += points
    return {f"dse.{app}.us_per_point": 1e6 * wall / points
            for app, (wall, points) in totals.items() if points}


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import flows
    import tracing

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = declared["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    ops = flows.Ops()
    readings = []
    try:
        # Probes first, before this process trains and warms numpy.
        probes = probe_setup(flows, ops, readings)
        ctx = flows.Context(seed=args.seed, workers=nproc(),
                            work_dir=work_dir, ops=ops, readings=readings)
        if args.trace:
            metrics = traced_run(flows, tracing, ctx, args, probes)
        else:
            session = run_session(flows, ctx, args.workload, args.seconds,
                                  flows.MIN_MAIN_PASSES)
            metrics = end_to_end(flows, session, probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("host " + json.dumps(host(args.seed, readings)))
    missing = sorted(n for n in units if metrics.get(n) is None)
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        ops.check(False, f"metrics missing {missing}, undeclared {extra}")
    for name in units:
        if metrics.get(name) is not None:
            print(f"{name:40s} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units if metrics.get(name) is not None
        },
    }))
    return 0 if ops.failed == 0 else 1


def traced_run(flows, tracing, ctx, args, probes) -> dict:
    """Untraced then traced sessions of the same work, until time is up.

    Per-layer times come from the traced sessions; the per-app explore
    cost comes from the untraced ones, which the hooks do not slow.
    """
    start = time.perf_counter()
    tracer = tracing.Tracer()
    untraced, traced = Session(), Session()
    untraced_s = traced_s = traced_wall_s = 0.0
    while not traced.sweep + traced.parallel + traced.report or (
            time.perf_counter() - start < args.seconds):
        ctx.scaled_s = 0.0
        untraced.extend(run_session(flows, ctx, args.workload, 0, 1))
        untraced_s += ctx.scaled_s
        ctx.tracer, ctx.scaled_s, ctx.window_s = tracer, 0.0, 0.0
        tracer.install()
        try:
            traced.extend(run_session(flows, ctx, args.workload, 0, 1))
        finally:
            tracer.uninstall()
            ctx.tracer = None
        traced_s += ctx.scaled_s
        traced_wall_s += ctx.window_s
    ctx.window_s = traced_wall_s
    metrics = per_layer(tracing, ctx, tracer, traced, traced_s / untraced_s,
                        probes)
    metrics.update(app_us_per_point(untraced))
    tracer.write(TRACES / f"{args.workload}-seed{args.seed}.jsonl")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

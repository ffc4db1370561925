"""The measured flows and their output checks.

Three flows exercise the program the way its users do:

* ``serial_pass`` -- serial ``explore`` of all seven Table II apps, each
  with empty estimation caches and ``repro.obs`` off (``repro explore``);
* ``parallel_pass`` -- one ``explore`` with ``workers=nproc`` that
  checkpoints into a fresh directory, then ``explore(..., resume=True)``
  on the finished directory (``repro explore --checkpoint-dir/--resume``);
* ``report_pass`` -- the ``repro report`` Table III flow: explores at the
  400-point default budget with obs metrics on and one estimator shared by
  every explore, then ``synthesize`` and ``simulate`` of the Pareto
  designs to price the estimates' error.

Each workload repeats one flow (its *main* flow) for the measured time
and then runs the other flows, so that every run prints every end-to-end
metric: ``sweep`` adds parallel and report passes, ``report`` adds
parallel passes. Every flow's inputs derive from the workload seed alone, and a
pass repeats the same inputs, so all passes of one run must agree.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro.dse
import repro.sim
import repro.synth
from repro import obs
from repro.apps import all_benchmarks, get_benchmark
from repro.estimation import Estimator, default_estimator
from repro.runtime import estimate_to_doc

#: Point budget per app in the sweep flow.
SWEEP_POINTS = 500
#: App and budget of the parallel checkpointed flow. A pass takes about a
#: second, short enough for the calibration around it to track the host.
PARALLEL_APP = "gda"
PARALLEL_POINTS = 2000
#: A resume takes well under a second: time several, take the median.
RESUMES_PER_PASS = 3
#: ``repro report``'s default DSE budget, and the sample seeds per pass.
REPORT_POINTS = 400
REPORT_SAMPLE_SEEDS = 2
#: Points per app re-estimated on the uncached path by the sweep check.
UNCACHED_CHECKS_PER_APP = 8
#: Passes of the main flow; two at least, so passes can be compared.
MIN_MAIN_PASSES = 2
#: Passes of the flows that are not the workload's main flow. A parallel
#: pass takes about a second: six give a median one slow second cannot
#: move.
COMPANION_PARALLEL_PASSES = 6
COMPANION_REPORT_PASSES = 2


def derive_seed(seed: int, label: str) -> int:
    """A sample seed for ``label`` that depends on the workload seed only."""
    return zlib.crc32(f"{seed}/{label}".encode())


class Ops:
    """Operations attempted and failed; failures are logged to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def attempt(self, what: str, fn, *args, **kwargs):
        """Run one operation; an exception counts as failed and gives None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # noqa: BLE001 - the benchmark must keep counting
            self.failed += 1
            print(f"perfbench: {what} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


#: Time of ``calibrate()`` on the reference host (2-CPU Xeon).
CALIBRATION_REFERENCE_S = 0.006


def calibrate(processes: int = 1) -> float:
    """Time a fixed pure-Python loop: how fast the host runs right now.

    The loop does the kind of work the program does (dict stores, tuples,
    small strings); the best of three short loops ignores a single
    interruption. With ``processes > 1`` that many loops run at once,
    because a busy neighbour slows one loop and two loops differently.
    """
    if processes > 1:
        # Fork, as the DSE pool does: the loop needs no state and no numpy.
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            return statistics.fmean(pool.map(calibrate, [1] * processes))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(40_000):
            table[i % 1000] = (i, str(i))
        best = min(best, time.perf_counter() - start)
    return best


class Window:
    """Times one measured window; arms the tracer, if any, while open.

    ``raw_s`` is the wall time. ``s`` is the same time at the reference
    host's speed: shared hosts drift in speed by 15-40% over minutes and
    flip between a fast and a slow state within seconds, which more work
    per run cannot average out. :func:`calibrate` runs just before and
    just after the window, and ``s = raw_s * reference / mean reading``.
    """

    def __init__(self, ctx: "Context", processes: int = 1) -> None:
        self._ctx = ctx
        self._processes = processes
        self.raw_s = self.s = 0.0
        self._factor = 1.0

    def __enter__(self) -> "Window":
        self._before = self._ctx.calibrate(self._processes)
        if self._ctx.tracer is not None:
            self._ctx.tracer.armed = True
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = time.perf_counter() - self._t0
        if self._ctx.tracer is not None:
            self._ctx.tracer.armed = False
        after = self._ctx.calibrate(self._processes)
        self._factor = CALIBRATION_REFERENCE_S / ((self._before + after) / 2)
        self.s = self.scale(self.raw_s)
        self._ctx.window_s += self.raw_s
        self._ctx.scaled_s += self.s

    def scale(self, raw_s: float) -> float:
        """A part of this window's wall time, at the reference speed."""
        return raw_s * self._factor


@dataclass
class Context:
    """What every flow needs: seed, worker count, scratch space, models."""

    seed: int
    workers: int
    work_dir: Path
    ops: Ops = field(default_factory=Ops)
    tracer: Optional[object] = None
    window_s: float = 0.0  # summed wall time of every measured window
    scaled_s: float = 0.0  # the same at the reference host's speed
    readings: List[float] = field(default_factory=list)  # one-process

    def __post_init__(self) -> None:
        trained = default_estimator()
        self._models = (trained.board, trained.templates, trained.corrections)

    def estimator(self) -> Estimator:
        """A fresh estimator (empty caches) on the trained models."""
        board, templates, corrections = self._models
        return Estimator(board, templates=templates, corrections=corrections)

    def window(self, processes: int = 1) -> Window:
        return Window(self, processes)

    def calibrate(self, processes: int = 1) -> float:
        """One :func:`calibrate` reading; one-process ones are kept."""
        reading = calibrate(processes)
        if processes == 1:
            self.readings.append(reading)
        return reading


def signature(result) -> str:
    """Digest of an exploration: every estimate and the Pareto front."""
    doc = [
        result.legal_sampled,
        [[p.params, estimate_to_doc(p.estimate)] for p in result.points],
        [p.params for p in result.pareto],
    ]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


# -- flows -----------------------------------------------------------------


@dataclass
class SweepPass:
    """Serial explores: legal points, explore wall, per-app split."""

    points: int = 0
    wall_s: float = 0.0
    apps: Dict[str, List[float]] = field(default_factory=dict)  # [raw, n]
    signatures: Dict[str, str] = field(default_factory=dict)
    caches: List[dict] = field(default_factory=list)
    results: Dict[str, object] = field(default_factory=dict)

    @property
    def points_per_s(self) -> float:
        return self.points / self.wall_s

    def add(self, name: str, wall_s: float, raw_s: float, result) -> None:
        points = len(result.points)
        self.points += points
        self.wall_s += wall_s
        app = self.apps.setdefault(name, [0.0, 0])
        app[0] += raw_s
        app[1] += points


def sweep_jobs(ctx: Context):
    return [
        (bench, SWEEP_POINTS, derive_seed(ctx.seed, f"sweep/{bench.name}"))
        for bench in all_benchmarks()
    ]


def serial_pass(ctx: Context, jobs, keep_results: bool = False) -> SweepPass:
    """Serial explore of each job, each with empty caches, obs off."""
    obs.disable()
    out = SweepPass()
    for bench, budget, seed in jobs:
        est = ctx.estimator()
        with ctx.window() as w:
            result = ctx.ops.attempt(
                f"explore {bench.name}", repro.dse.explore,
                bench, est, max_points=budget, seed=seed,
            )
        if result is None:
            continue
        out.add(bench.name, w.s, w.raw_s, result)
        out.caches.append(est.caches.stats())
        out.signatures[f"{bench.name}/{seed}"] = signature(result)
        if keep_results:
            out.results[bench.name] = result
    return out


@dataclass
class ParallelPass:
    """A checkpointed parallel explore and its resumes."""

    points: int = 0
    wall_s: float = 0.0
    resume_s: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    signature: str = ""

    @property
    def points_per_s(self) -> float:
        return self.points / self.wall_s


def parallel_plan(ctx: Context):
    bench = get_benchmark(PARALLEL_APP)
    return bench, PARALLEL_POINTS, derive_seed(ctx.seed, "parallel")


def parallel_pass(ctx: Context) -> ParallelPass:
    """Checkpointed ``workers=nproc`` explore, then resumes of it."""
    obs.disable()
    bench, budget, seed = parallel_plan(ctx)
    out = ParallelPass()
    directory = Path(tempfile.mkdtemp(prefix="ckpt-", dir=ctx.work_dir))
    try:
        est = ctx.estimator()
        with ctx.window(ctx.workers) as w:
            result = ctx.ops.attempt(
                "parallel explore", repro.dse.explore,
                bench, est, max_points=budget, seed=seed,
                workers=ctx.workers, checkpoint_dir=directory,
            )
        if result is None:
            return out
        out.points, out.wall_s = len(result.points), w.s
        out.signature = signature(result)
        out.checkpoint_bytes = sum(
            f.stat().st_size for f in directory.rglob("*") if f.is_file()
        )
        for _ in range(RESUMES_PER_PASS):
            est = ctx.estimator()
            with ctx.window() as w:
                resumed = ctx.ops.attempt(
                    "resume", repro.dse.explore,
                    bench, est, max_points=budget, seed=seed,
                    workers=ctx.workers, checkpoint_dir=directory,
                    resume=True,
                )
            if resumed is None:
                continue
            out.resume_s.append(w.s)
            ctx.ops.check(
                resumed.restored == result.legal_sampled,
                f"resume restored {resumed.restored} of "
                f"{result.legal_sampled} points",
            )
            ctx.ops.check(
                signature(resumed) == out.signature,
                "resumed exploration differs from the checkpointed one",
            )
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return out


@dataclass
class ReportPass:
    """The Table III flow: wall, its explores, and the error figures."""

    wall_s: float = 0.0
    explore: SweepPass = field(default_factory=SweepPass)
    errors_pct: Dict[str, float] = field(default_factory=dict)
    fronts: List[list] = field(default_factory=list)
    histogram_observations: int = 0


ERROR_METRICS = ("alm", "dsp", "bram", "cycle")


def report_jobs(ctx: Context):
    return [
        (bench, REPORT_POINTS, derive_seed(ctx.seed, f"report/{k}"))
        for k in range(REPORT_SAMPLE_SEEDS)
        for bench in all_benchmarks()
    ]


def _evaluate(bench, result):
    """Synthesize and simulate every Pareto design: relative errors."""
    errors = []
    for point in result.pareto:
        design = bench.build(result.dataset, **point.params)
        rep = repro.synth.synthesize(design)
        sim = repro.sim.simulate(design)
        est = point.estimate
        errors.append((
            abs(est.alms - rep.alms) / max(rep.alms, 1),
            abs(est.dsps - rep.dsps) / max(rep.dsps, 1),
            abs(est.brams - rep.brams) / max(rep.brams, 1),
            abs(est.cycles - sim.cycles) / max(sim.cycles, 1),
        ))
    return errors


def report_pass(ctx: Context) -> ReportPass:
    """Explore every job with one shared estimator, then price the fronts.

    Errors are the mean over jobs of each job's mean relative error over
    its whole Pareto front, in percent.
    """
    out = ReportPass()
    obs.metrics().reset()
    obs.enable(metrics=True)
    est = ctx.estimator()
    per_job = []
    try:
        for bench, budget, seed in report_jobs(ctx):
            with ctx.window() as w:
                t0 = time.perf_counter()
                result = ctx.ops.attempt(
                    f"explore {bench.name}", repro.dse.explore,
                    bench, est, max_points=budget, seed=seed,
                )
                explore_s = time.perf_counter() - t0
                errors = result and ctx.ops.attempt(
                    f"synthesize/simulate {bench.name}", _evaluate,
                    bench, result,
                )
            out.wall_s += w.s
            if result is None:
                continue
            out.explore.add(bench.name, w.scale(explore_s), explore_s, result)
            if errors:
                per_job.append([statistics.fmean(e) for e in zip(*errors)])
                out.fronts.append(
                    [bench.name, seed, [p.params for p in result.pareto]]
                )
        out.explore.caches.append(est.caches.stats())
        out.histogram_observations = sum(
            h["count"]
            for h in obs.metrics().to_dict()["histograms"].values()
        )
    finally:
        obs.enable(metrics=False)
        obs.metrics().reset()
    if per_job:
        out.errors_pct = {
            name: 100 * statistics.fmean(column)
            for name, column in zip(ERROR_METRICS, zip(*per_job))
        }
    return out


# -- checks ----------------------------------------------------------------


def check_uncached(ctx: Context, sweep: SweepPass) -> None:
    """Sampled sweep points equal the uncached per-point path, bit for bit."""
    uncached = default_estimator(cache=False)
    rng = random.Random(derive_seed(ctx.seed, "uncached-check"))
    for bench in all_benchmarks():
        result = sweep.results.get(bench.name)
        if result is None or not result.points:
            continue
        for point in rng.sample(
            result.points, min(UNCACHED_CHECKS_PER_APP, len(result.points))
        ):
            fresh = ctx.ops.attempt(
                f"uncached estimate {bench.name}",
                lambda: uncached.estimate(
                    bench.build(result.dataset, **point.params)
                ),
            )
            if fresh is not None:
                ctx.ops.check(
                    estimate_to_doc(fresh) == estimate_to_doc(point.estimate),
                    f"{bench.name} {point.params}: cached sweep estimate "
                    "differs from the uncached path",
                )


def check_serial(ctx: Context, parallel: ParallelPass) -> None:
    """The parallel point set, estimates and front equal a serial explore."""
    bench, budget, seed = parallel_plan(ctx)
    obs.disable()
    result = ctx.ops.attempt(
        "serial reference explore", repro.dse.explore,
        bench, ctx.estimator(), max_points=budget, seed=seed,
    )
    if result is not None:
        ctx.ops.check(
            signature(result) == parallel.signature,
            "parallel checkpointed exploration differs from the serial one "
            "(point set, estimates or Pareto front)",
        )


def check_same(ctx: Context, values: list, what: str) -> None:
    """Every pass of one run repeats the first pass exactly."""
    for value in values[1:]:
        ctx.ops.check(value == values[0], f"{what} differs between passes")

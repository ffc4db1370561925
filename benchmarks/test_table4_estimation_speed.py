"""Table IV: average estimation time per design point.

Ours vs an HLS-style tool on the GDA design space (the paper uses 250
design points against Vivado HLS). "Restricted" excludes outer-loop
pipelining; "full" includes points whose outer loop is pipelined, forcing
the HLS front end to fully unroll inner loops before scheduling.

Paper: 0.017 s/design (ours) vs 4.75 s (restricted, 279x) vs 111.06 s
(full, 6533x). Our comparator is a reimplementation of the mechanism, not
Vivado itself, so absolute ratios are smaller; the claim reproduced is the
orders-of-magnitude ordering ours << restricted << full.

Besides the human-readable ``results/table4.txt``, the run emits a
machine-readable ``results/BENCH_table4.json`` via the
:mod:`repro.obs` metrics layer: per-benchmark points/sec plus the
per-pass latency decomposition (cycle model vs area model vs NN
corrections), so future performance PRs can diff against a committed
baseline.  A ``parallel_dse`` section records the median wall time of a
real gda sweep per worker count (with the host cpu count, so speedups
stay honest; see ``benchmarks/parallel_dse.py``) and asserts every
parallel sweep enumerates exactly the serial point set.  An
``estimation_cache`` section records the memoized+batched hot path
against ``--no-cache`` on identical pre-built designs (bit-identical
estimates, >=2x floor); ``benchmarks/perf_gate.py`` diffs fresh speedup
ratios against the committed ones in CI. A run never touches the
committed baseline ``BENCH_table4.json`` at the repo root: re-record it by
copying the fresh file over it (see ``docs/runtime.md``).
"""

import json
import os
import pickle
import platform
import random
import time

import pytest

from repro import obs
from repro.apps import all_benchmarks, get_benchmark
from repro.estimation import Estimator
from repro.hls import HLSExplosionError, HLSTool
from repro.ir import IRError
from repro.runtime import BATCH_SIZE, fork_available

from conftest import write_result
from parallel_dse import (
    PAR_BENCH, PAR_POINTS, PAR_REPEATS, measure_parallel_dse,
)

N_OURS = 250
N_RESTRICTED = 25
N_FULL = 4
N_JSON = 40  # points per benchmark for the BENCH_table4.json decomposition

# Parallel-DSE scaling section: the worker counts measured. Speedups only
# materialize with that many real cores; the committed JSON records the
# host's cpu count alongside.
PARALLEL_WORKERS = (1, 2, 4)

# Memoized + batched hot path: points per benchmark and the minimum
# speedup the cached/batched sweep must show over --no-cache. The CI
# perf gate (benchmarks/perf_gate.py) diffs fresh runs against the
# committed ratios, so only the ratio — not absolute wall time — must
# reproduce across hosts.
N_CACHE = 120
CACHE_BENCHES = ("dotproduct", "gda")
MIN_CACHE_SPEEDUP = 2.0
CACHE_REPEATS = 3  # best-of-N wall times; scheduler noise never favors

@pytest.fixture(scope="module")
def gda_points():
    bench = get_benchmark("gda")
    ds = bench.default_dataset()
    space = bench.param_space(ds)
    points = space.sample(random.Random(21), N_OURS)
    return bench, ds, points


def _time_per_design(fn, points):
    start = time.perf_counter()
    done = 0
    for params in points:
        fn(params)
        done += 1
    return (time.perf_counter() - start) / max(done, 1)


def test_table4_speeds(estimator, gda_points, results_dir):
    bench, ds, points = gda_points
    tool = HLSTool()

    ours = _time_per_design(
        lambda p: estimator.estimate(bench.build(ds, **p)), points[:N_OURS]
    )

    def hls_run(pipeline_outer, params):
        design = bench.build(ds, **params)
        try:
            tool.estimate(design, pipeline_outer=pipeline_outer)
        except HLSExplosionError:
            pass  # the real tool would grind on; we cap graph size

    restricted = _time_per_design(
        lambda p: hls_run(False, p), points[:N_RESTRICTED]
    )
    full = _time_per_design(lambda p: hls_run(True, p), points[:N_FULL])

    lines = [
        f"{'Tool':34s} {'s/design':>12s} {'slowdown vs ours':>18s}",
        f"{'Our estimator':34s} {ours:12.5f} {1.0:18.1f}",
        f"{'HLS-style (restricted)':34s} {restricted:12.5f} "
        f"{restricted / ours:18.1f}",
        f"{'HLS-style (full, outer pipelined)':34s} {full:12.5f} "
        f"{full / ours:18.1f}",
        "",
        "Paper: 0.017s vs 4.75s (279x) vs 111.06s (6533x).",
    ]
    write_result(
        results_dir / "table4.txt",
        "Table IV — average estimation time per design point",
        lines,
    )
    # Shape: ours is much faster; the full space is far worse than the
    # restricted one because of inner-loop unrolling before scheduling.
    assert restricted > 3 * ours
    assert full > 10 * restricted
    assert ours < 0.05  # paper: milliseconds per design

    _write_bench_json(
        estimator,
        {"ours_s": ours, "hls_restricted_s": restricted, "hls_full_s": full},
        results_dir / "BENCH_table4.json",
    )


def _parallel_dse_section(estimator):
    """Measure sharded-explore throughput for each worker count.

    Delegates to :func:`parallel_dse.measure_parallel_dse` (shared with
    the CI perf gate): every run on a fresh empty-cache estimator, every
    run asserted to enumerate exactly the serial point set.  Speedup
    numbers are honest: on a 1-core host all worker counts land at
    roughly 1.0x, so the host cpu count is committed alongside.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1

    rows = measure_parallel_dse(estimator, workers_list=PARALLEL_WORKERS)
    return {
        "benchmark": PAR_BENCH,
        "points": PAR_POINTS,
        "cpus": cpus,
        "fork_available": fork_available(),
        "note": (
            f"one shard per worker; median of {PAR_REPEATS} interleaved "
            "runs per worker count; speedup_vs_serial saturates at the "
            "committed cpu count"
        ),
        "workers": rows,
    }


def _build_designs(bench_name, seed, count):
    """Sampled legal designs for one benchmark (IR-illegal points skipped)."""
    bench = get_benchmark(bench_name)
    ds = bench.default_dataset()
    points = bench.param_space(ds).sample(random.Random(seed), count)
    designs = []
    for params in points:
        try:
            designs.append(bench.build(ds, **params))
        except IRError:
            continue
    return designs


def _estimation_cache_section(estimator):
    """Measure the memoized+batched hot path against ``--no-cache``.

    Both paths estimate the same pre-built designs, so the comparison
    isolates estimation (no IR build time).  The cached estimator starts
    from empty caches on every repeat — the speedup comes from
    intra-sweep template and schedule reuse plus the vectorized NN
    correction pass, not from a pre-warmed run.  Each path takes the
    best of ``CACHE_REPEATS`` wall times (scheduler noise only ever
    slows a run down).  Bit-identity of every Estimate is asserted, and
    the >=2x floor is the PR's acceptance criterion.
    """
    cold = Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections, cache=False,
    )
    rows = {}
    for name in CACHE_BENCHES:
        designs = _build_designs(name, 17, N_CACHE)
        assert len(designs) >= 2

        uncached_s = float("inf")
        for _ in range(CACHE_REPEATS):
            start = time.perf_counter()
            cold_estimates = [cold.estimate(d) for d in designs]
            uncached_s = min(uncached_s, time.perf_counter() - start)

        cached_s = float("inf")
        for _ in range(CACHE_REPEATS):
            warm = Estimator(
                estimator.board, templates=estimator.templates,
                corrections=estimator.corrections,
            )
            start = time.perf_counter()
            warm_estimates = []
            for lo in range(0, len(designs), BATCH_SIZE):
                warm_estimates.extend(
                    warm.estimate_many(designs[lo:lo + BATCH_SIZE])
                )
            cached_s = min(cached_s, time.perf_counter() - start)

        # The cache layer's contract: not a single bit may change.
        assert (
            [pickle.dumps(e) for e in cold_estimates]
            == [pickle.dumps(e) for e in warm_estimates]
        ), f"{name}: cached estimates diverged from --no-cache"

        speedup = uncached_s / cached_s
        assert speedup >= MIN_CACHE_SPEEDUP, (
            f"{name}: cached+batched path only {speedup:.2f}x faster than "
            f"--no-cache (floor {MIN_CACHE_SPEEDUP}x)"
        )
        template = warm.caches.template.stats()
        rows[name] = {
            "designs": len(designs),
            "uncached_s": uncached_s,
            "cached_s": cached_s,
            "uncached_points_per_sec": len(designs) / uncached_s,
            "cached_points_per_sec": len(designs) / cached_s,
            "speedup": speedup,
            "template_hit_rate": template["hit_rate"],
        }
    return {
        "batch_size": BATCH_SIZE,
        "min_speedup": MIN_CACHE_SPEEDUP,
        "note": (
            "cached+batched estimate_many from empty caches vs the "
            "--no-cache per-point path on identical pre-built designs; "
            "estimates verified bit-identical"
        ),
        "benchmarks": rows,
    }


def _write_bench_json(estimator, gda_timings, path):
    """Emit BENCH_table4.json: per-benchmark rates + per-pass timing."""
    was_enabled = obs.metrics_enabled()
    benches = {}
    for bench in all_benchmarks():
        ds = bench.default_dataset()
        points = bench.param_space(ds).sample(random.Random(21), N_JSON)
        obs.metrics().reset()
        obs.enable(metrics=True)
        start = time.perf_counter()
        for params in points:
            estimator.estimate(bench.build(ds, **params))
        elapsed = time.perf_counter() - start
        snapshot = obs.metrics().to_dict()
        obs.enable(metrics=was_enabled)
        passes = {
            name[len("pass."):]: summary
            for name, summary in snapshot["histograms"].items()
            if name.startswith("pass.")
        }
        benches[bench.name] = {
            "points": len(points),
            "elapsed_s": elapsed,
            "points_per_sec": len(points) / elapsed,
            "s_per_design": elapsed / len(points),
            "estimate_latency": snapshot["histograms"].get(
                "estimate.latency_s", {}
            ),
            "passes": passes,
        }
    obs.metrics().reset()
    payload = {
        "schema": 1,
        "generated_by": "benchmarks/test_table4_estimation_speed.py",
        "python": platform.python_version(),
        "units": "seconds unless suffixed otherwise",
        "paper": {
            "ours_s": 0.017, "hls_restricted_s": 4.75, "hls_full_s": 111.06,
        },
        "gda_table4": gda_timings,
        "benchmarks": benches,
        "parallel_dse": _parallel_dse_section(estimator),
        "estimation_cache": _estimation_cache_section(estimator),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {path}")


def test_bench_our_estimation_speed(benchmark, estimator, gda_points):
    bench, ds, points = gda_points
    design = bench.build(ds, **points[0])
    benchmark(estimator.estimate, design)


def test_bench_hls_restricted_speed(benchmark, gda_points):
    bench, ds, points = gda_points
    design = bench.build(ds, **points[0])
    tool = HLSTool()
    benchmark(tool.estimate, design, False)

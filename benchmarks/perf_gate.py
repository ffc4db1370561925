"""CI perf gate for the estimation hot path and the parallel DSE engine.

Gates two sections of ``BENCH_table4.json``, both as *ratios* (never
absolute points/sec: both the committed number and the fresh one divide
two wall times on the same host, so slow CI runners cancel out):

* ``estimation_cache`` — cached-vs-``--no-cache`` speedup per benchmark
  (a cache stops hitting, batching degrades to per-point work);
* ``parallel_dse`` — the ``workers=2`` sharded gda sweep's median
  ``speedup_vs_serial`` (fork or dispatch overhead creeping in; see
  ``benchmarks/parallel_dse.py``).

A fresh ratio more than ``REGRESSION_TOLERANCE`` (30%) below its
committed value fails the gate.  Set ``REPRO_SKIP_PERF_GATE=1`` to skip
entirely, e.g. on heavily loaded runners where even ratios get noisy.

Run from the repo root::

    PYTHONPATH=src python benchmarks/perf_gate.py
"""

from __future__ import annotations

import json
import os
import pickle
import random
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

REGRESSION_TOLERANCE = 0.30
SKIP_ENV = "REPRO_SKIP_PERF_GATE"
N_GATE_POINTS = 80
SAMPLE_SEED = 17
REPEATS = 3  # best-of-N wall times; noise only ever slows a run down

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_table4.json"


def evaluate(
    baseline: Dict[str, float],
    measured: Dict[str, float],
    tolerance: float = REGRESSION_TOLERANCE,
) -> Tuple[bool, List[str]]:
    """Gate fresh speedup ratios against committed ones.

    Pure logic (no measurement, no I/O) so tests can drive it directly:
    a benchmark passes when its fresh speedup is at least
    ``(1 - tolerance)`` of the committed speedup.  A benchmark present
    in the baseline but missing from ``measured`` fails the gate.
    Returns ``(ok, report_lines)``.
    """
    ok = True
    lines = []
    for name in sorted(baseline):
        committed = float(baseline[name])
        floor = committed * (1.0 - tolerance)
        fresh = measured.get(name)
        if fresh is None:
            ok = False
            lines.append(f"{name}: no fresh measurement -> FAIL")
            continue
        passed = fresh >= floor
        ok = ok and passed
        lines.append(
            f"{name}: committed {committed:.2f}x, fresh {fresh:.2f}x, "
            f"floor {floor:.2f}x -> {'ok' if passed else 'REGRESSION'}"
        )
    return ok, lines


def _gate_designs(bench_name: str, count: int):
    """Pre-built legal designs for one benchmark's default dataset."""
    from repro.apps import get_benchmark
    from repro.ir import IRError

    bench = get_benchmark(bench_name)
    ds = bench.default_dataset()
    points = bench.param_space(ds).sample(random.Random(SAMPLE_SEED), count)
    designs = []
    for params in points:
        try:
            designs.append(bench.build(ds, **params))
        except IRError:
            continue
    return designs


def measure_speedups(
    bench_names, n_points: int = N_GATE_POINTS
) -> Dict[str, float]:
    """Fresh cached-vs-uncached speedup per benchmark.

    Mirrors the ``estimation_cache`` section of the Table IV benchmark:
    identical pre-built designs through the ``--no-cache`` per-point
    path and through ``estimate_many`` on an estimator with empty
    caches, with bit-identity of every estimate asserted.
    """
    from repro.estimation import Estimator, default_estimator
    from repro.runtime import BATCH_SIZE

    warm_models = default_estimator()
    cold = Estimator(
        warm_models.board, templates=warm_models.templates,
        corrections=warm_models.corrections, cache=False,
    )
    speedups: Dict[str, float] = {}
    for name in bench_names:
        designs = _gate_designs(name, n_points)
        if len(designs) < 2:
            continue
        uncached_s = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            cold_estimates = [cold.estimate(d) for d in designs]
            uncached_s = min(uncached_s, time.perf_counter() - start)

        cached_s = float("inf")
        for _ in range(REPEATS):
            cached = Estimator(
                warm_models.board, templates=warm_models.templates,
                corrections=warm_models.corrections,
            )
            start = time.perf_counter()
            cached_estimates = []
            for lo in range(0, len(designs), BATCH_SIZE):
                cached_estimates.extend(
                    cached.estimate_many(designs[lo:lo + BATCH_SIZE])
                )
            cached_s = min(cached_s, time.perf_counter() - start)

        if [pickle.dumps(e) for e in cold_estimates] != [
            pickle.dumps(e) for e in cached_estimates
        ]:
            raise AssertionError(
                f"{name}: cached estimates diverged from --no-cache"
            )
        speedups[name] = uncached_s / cached_s
    return speedups


def load_baseline(path: Path = BENCH_JSON) -> Dict[str, float]:
    """Committed estimation-cache speedups from BENCH_table4.json."""
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    section = doc.get("estimation_cache", {})
    return {
        name: float(row["speedup"])
        for name, row in section.get("benchmarks", {}).items()
    }


def load_runtime_baseline(path: Path = BENCH_JSON) -> Dict[str, float]:
    """Committed parallel-DSE ratio, or {} if absent.

    The key is a gate-report label: ``parallel_dse.workers2`` is the
    2-worker sharded sweep's speedup over the serial sweep.
    """
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    baseline: Dict[str, float] = {}
    workers = doc.get("parallel_dse", {}).get("workers", {})
    if "2" in workers:
        baseline["parallel_dse.workers2"] = float(
            workers["2"]["speedup_vs_serial"]
        )
    return baseline


def measure_runtime_ratios(baseline: Dict[str, float]) -> Dict[str, float]:
    """Fresh parallel-DSE ratio for the gated key.

    Reuses the exact measurement harness the Table IV benchmark commits
    from (``benchmarks/parallel_dse.py``), so committed and fresh ratios
    come from the same protocol.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from parallel_dse import measure_parallel_dse
    finally:
        sys.path.pop(0)
    from repro.estimation import default_estimator

    estimator = default_estimator()
    measured: Dict[str, float] = {}
    if "parallel_dse.workers2" in baseline:
        rows = measure_parallel_dse(estimator, workers_list=(1, 2))
        measured["parallel_dse.workers2"] = rows["2"]["speedup_vs_serial"]
    return measured


def main(argv=None) -> int:
    """Entry point: 0 on pass/skip, 1 on regression."""
    if os.environ.get(SKIP_ENV):
        print(f"perf gate skipped ({SKIP_ENV} set)")
        return 0
    cache_baseline = load_baseline()
    runtime_baseline = load_runtime_baseline()
    if not cache_baseline and not runtime_baseline:
        print(
            "perf gate: no gateable baselines in "
            f"{BENCH_JSON.name}; run the Table IV benchmark to record them"
        )
        return 0
    ok = True
    if cache_baseline:
        measured = measure_speedups(sorted(cache_baseline))
        cache_ok, lines = evaluate(cache_baseline, measured)
        ok = ok and cache_ok
        print(
            "estimation hot-path perf gate "
            f"(tolerance {REGRESSION_TOLERANCE:.0%} of committed speedup):"
        )
        for line in lines:
            print(f"  {line}")
    if runtime_baseline:
        measured = measure_runtime_ratios(runtime_baseline)
        runtime_ok, lines = evaluate(runtime_baseline, measured)
        ok = ok and runtime_ok
        print(
            "parallel-DSE perf gate "
            f"(tolerance {REGRESSION_TOLERANCE:.0%} of committed ratio):"
        )
        for line in lines:
            print(f"  {line}")
    if not ok:
        print(f"perf gate FAILED; set {SKIP_ENV}=1 to bypass")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

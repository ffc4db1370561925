"""Parallel-DSE scaling harness shared by the Table IV bench and the perf gate.

:func:`measure_parallel_dse` times a real sharded sweep (gda, sized so
the serial side runs over a second) per worker count and commits the
ratio to ``BENCH_table4.json``: a ratio, never absolute points/sec, so a
slow runner and a fast workstation gate the same way.  Every run gets a
fresh empty-cache estimator sharing the trained models, so the ratio
reflects the engine rather than cache warmth, and every run is asserted
to enumerate exactly the serial point set before any timing is reported.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

from repro.apps import get_benchmark
from repro.dse import explore
from repro.estimation import Estimator

PAR_BENCH = "gda"
PAR_POINTS = 4000  # 1.4-2.3 s serial on a 2-CPU Xeon: well above timer noise
PAR_SEED = 13
PAR_REPEATS = 5  # interleaved rounds; the median is robust to one slow round


def _fresh_estimator(estimator: Estimator) -> Estimator:
    """Same trained models, empty estimation caches."""
    return Estimator(
        estimator.board, templates=estimator.templates,
        corrections=estimator.corrections,
    )


def _fingerprint(result):
    return [(p.params, p.cycles, p.alms) for p in result.points]


def measure_parallel_dse(
    estimator: Estimator, workers_list=(1, 2, 4),
) -> Dict[str, Dict[str, object]]:
    """Median sharded-explore wall time per worker count, cold caches.

    Each sweep uses the default one shard per worker. Rounds interleave
    the worker counts, so drift in host speed lands on every count
    alike; ``speedup_vs_serial`` divides the first count's median (the
    serial sweep) by each count's.
    """
    bench = get_benchmark(PAR_BENCH)
    runs: Dict[int, List[float]] = {w: [] for w in workers_list}
    reference = None
    for _ in range(PAR_REPEATS):
        for workers in workers_list:
            fresh = _fresh_estimator(estimator)
            start = time.perf_counter()
            result = explore(
                bench, fresh, max_points=PAR_POINTS, seed=PAR_SEED,
                workers=workers,
            )
            runs[workers].append(time.perf_counter() - start)
            fingerprint = _fingerprint(result)
            if reference is None:
                reference, swept = fingerprint, len(result.points)
            assert fingerprint == reference, (
                f"workers={workers} diverged from the serial sweep"
            )
    serial_s = statistics.median(runs[workers_list[0]])
    rows: Dict[str, Dict[str, object]] = {}
    for workers, times in runs.items():
        elapsed = statistics.median(times)
        rows[str(workers)] = {
            "elapsed_s": elapsed,
            "runs_s": times,
            "points_per_sec": swept / elapsed,
            "speedup_vs_serial": serial_s / elapsed,
        }
    return rows

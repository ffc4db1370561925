"""Guided design space search — an extension beyond the paper's random walk.

The paper samples up to 75,000 random legal points. Because the estimator
makes each probe nearly free, a guided walk can do better per probe: this
module adds randomized hill climbing with restarts over the same pruned
space. The neighborhood of a point changes one parameter to an adjacent
candidate value (tile sizes and factors are ordered), which matches the
smooth structure of the runtime/area surfaces the estimator exposes.

The search optimizes runtime subject to fitting the device; the ablation
bench compares its sample efficiency against pure random sampling.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.registry import Benchmark, Dataset
from ..estimation.cache import DEFAULT_POINT_ENTRIES, MISS, LRUCache, point_key
from ..estimation.estimator import Estimate, Estimator
from ..ir.node import IRError
from ..params import BoolParam, IntParam, ParamSpace
from .explorer import DesignPoint

Point = Dict[str, object]


@dataclass
class SearchResult:
    """Outcome of a guided search."""

    benchmark: str
    dataset: Dataset
    best: Optional[DesignPoint] = None
    evaluations: int = 0
    restarts: int = 0
    trajectory: List[float] = field(default_factory=list)


def _neighbors(space: ParamSpace, point: Point, rng: random.Random) -> List[Point]:
    """Points differing from ``point`` in exactly one parameter step."""
    out: List[Point] = []
    for param in space.params:
        current = point[param.name]
        if isinstance(param, BoolParam):
            candidate = dict(point)
            candidate[param.name] = not current
            out.append(candidate)
            continue
        assert isinstance(param, IntParam)
        values = list(param.candidates)
        try:
            idx = values.index(current)
        except ValueError:  # pragma: no cover - points come from the space
            continue
        for step in (-1, 1):
            j = idx + step
            if 0 <= j < len(values):
                candidate = dict(point)
                candidate[param.name] = values[j]
                out.append(candidate)
    rng.shuffle(out)
    return [p for p in out if space.is_legal(p)]


def local_search(
    benchmark: Benchmark,
    estimator: Estimator,
    dataset: Optional[Dataset] = None,
    budget: int = 300,
    restarts: int = 6,
    seed: int = 1,
) -> SearchResult:
    """Randomized hill climbing on runtime over the legal space.

    Point dedupe is two-level: a per-search ``seen`` map preserves the
    walk's budget/trajectory semantics (each distinct point costs one
    evaluation per search), while the estimator's shared design-point
    cache (:class:`~repro.estimation.cache.EstimationCaches`) skips the
    build+estimate work for points any earlier search or exploration
    already priced — sharing dedupe logic and hit/miss counters with the
    sharded explore runner. Illegal points cache as ``None``.
    """
    dataset = dataset or benchmark.default_dataset()
    space = benchmark.param_space(dataset)
    rng = random.Random(seed)
    result = SearchResult(benchmark.name, dataset)
    caches = getattr(estimator, "caches", None)
    point_cache: LRUCache = (
        caches.points if caches is not None
        else LRUCache("points", DEFAULT_POINT_ENTRIES)  # local, uncached run
    )
    seen: Dict[Tuple, Optional[Estimate]] = {}

    def evaluate(point: Point) -> Optional[Estimate]:
        key = point_key(benchmark.name, dataset, point)
        if key in seen:
            return seen[key]
        if result.evaluations >= budget:
            return None
        result.evaluations += 1
        cached = point_cache.get(key)
        if cached is not MISS:
            estimate: Optional[Estimate] = cached  # type: ignore[assignment]
        else:
            try:
                design = benchmark.build(dataset, **point)
            except IRError:
                estimate = None
            else:
                estimate = estimator.estimate(design)
            point_cache.put(key, estimate)
        seen[key] = estimate
        if estimate is None:
            return None
        if estimate.fits():
            if result.best is None or estimate.cycles < result.best.cycles:
                result.best = DesignPoint(dict(point), estimate)
        result.trajectory.append(
            result.best.cycles if result.best else float("inf")
        )
        return estimate

    # Keep restarting from fresh random points until the probe budget is
    # spent; `restarts` only sets how many starts are drawn per batch.
    while result.evaluations < budget:
        starts = space.sample(rng, restarts)
        if not starts:
            break
        evals_before = result.evaluations
        for start in starts:
            if result.evaluations >= budget:
                break
            result.restarts += 1
            current = start
            current_est = evaluate(current)
            while result.evaluations < budget:
                improved = False
                for neighbor in _neighbors(space, current, rng):
                    est = evaluate(neighbor)
                    if est is None:
                        continue
                    if est.fits() and (
                        current_est is None
                        or not current_est.fits()
                        or est.cycles < current_est.cycles
                    ):
                        current, current_est = neighbor, est
                        improved = True
                        break
                if not improved:
                    break
        if result.evaluations == evals_before:
            break  # everything reachable is cached; stop cleanly
    point_cache.publish()
    return result

"""Guided design space search — an extension beyond the paper's random walk.

The paper samples up to 75,000 random legal points. Because the estimator
makes each probe nearly free, a guided walk can do better per probe: this
module spends half of its probe budget on the paper's random sample and
the rest on hill climbing from the best sampled points, then from fresh
random starts. The neighborhood of a point changes one parameter to an
adjacent candidate value (tile sizes and factors are ordered), which
matches the smooth structure of the runtime/area surfaces the estimator
exposes. Climbing from a random start alone can stall on a plateau far
from the optimum; starting from the sample's best points avoids that.

The search optimizes runtime subject to fitting the device; the ablation
bench compares its sample efficiency against pure random sampling.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.registry import Benchmark, Dataset
from ..estimation.estimator import Estimate, Estimator
from ..estimation.plan import Plan
from ..ir.graph import Design
from ..ir.node import IRError
from ..ir.skeleton import Skeletons, instantiate
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
    """Random sampling, then hill climbing on runtime over the legal space.

    The first ``budget // 2`` probes sample the space at random. Each
    sampled point that fits the device then seeds a first-improvement
    climb, fastest first; once those are spent, climbs start from fresh
    random points drawn ``restarts`` at a time.

    A per-search ``seen`` map dedupes the walk: each distinct point is
    instantiated and estimated once and costs one evaluation of the
    budget; a revisit reuses its estimate (``None`` for an illegal
    point) for free.
    """
    dataset = dataset or benchmark.default_dataset()
    space = benchmark.param_space(dataset)
    rng = random.Random(seed)
    result = SearchResult(benchmark.name, dataset)
    seen: Dict[Tuple, Optional[Estimate]] = {}
    # Skeletons and their estimation plans live for this search only
    # (see repro.ir.skeleton and repro.estimation.plan).
    skeletons: Skeletons = {}
    plans: Dict[Design, Plan] = {}
    build = functools.partial(benchmark.build, dataset)

    def evaluate(point: Point) -> Optional[Estimate]:
        key = tuple(sorted(point.items()))
        if key in seen:
            return seen[key]
        if result.evaluations >= budget:
            return None
        result.evaluations += 1
        try:
            design = instantiate(skeletons, build, point)
        except IRError:
            estimate: Optional[Estimate] = None
        else:
            plan = plans.get(design)
            if plan is None:
                plan = plans[design] = estimator.plan(design)
            (estimate,) = estimator.finish_many([plan.analyze()])
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

    def climb(current: Point, current_est: Optional[Estimate]) -> None:
        result.restarts += 1
        while result.evaluations < budget:
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
                    break
            else:
                return

    sampled = [(p, evaluate(p)) for p in space.sample(rng, budget // 2)]
    fitting = [(p, e) for p, e in sampled if e is not None and e.fits()]
    for start, est in sorted(fitting, key=lambda pe: pe[1].cycles):
        if result.evaluations >= budget:
            break
        climb(start, est)

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
            climb(start, evaluate(start))
        if result.evaluations == evals_before:
            break  # everything reachable was seen; stop cleanly
    return result

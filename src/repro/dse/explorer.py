"""Design space exploration (paper Section IV-C).

Randomly samples up to a budget of legal points from a benchmark's pruned
parameter space (divisor tile sizes and parallelization factors, buffer
capacity caps), estimates every point with the fast estimator, discards
designs that do not fit the device, and extracts the Pareto frontier along
execution cycles x ALM usage.

Execution is delegated to the :mod:`repro.runtime` engine: the seeded
sample is split into disjoint shards (:mod:`repro.runtime.sharding`) and
run either in-process or across forked workers
(:mod:`repro.runtime.pool`), optionally checkpointing per-shard JSONL
files for kill/resume (:mod:`repro.runtime.checkpoint`). For a fixed
seed the sampled point set — and therefore the Pareto front — is
identical for every ``shards``/``workers`` combination; the merge layer
(:mod:`repro.runtime.merge`) enforces that no point is dropped or
duplicated.

When observability is enabled (:mod:`repro.obs`), the run records the
per-point estimation-latency histogram (``dse.point_latency_s``), point
outcome counters (``dse.points.{sampled,illegal,unfit,valid,restored}``),
periodic ``dse.progress`` instants carrying points/sec, and — in sharded
runs — per-shard ``dse.shard.done`` heartbeats: the numbers behind the
paper's "75,000 points in seconds" DSE claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from .. import obs
from ..apps.registry import Benchmark, Dataset
from ..estimation.estimator import Estimate, Estimator
from ..runtime import (
    DEFAULT_BATCH_SIZE,
    CheckpointStore,
    merge_outcomes,
    outcomes_from_states,
    plan_shards,
    read_manifest,
    run_plan,
)
from .pareto import pareto_front

DEFAULT_MAX_POINTS = 75_000

# Emit a dse.progress instant event every this many estimated points.
PROGRESS_EVERY = 1_000


@dataclass
class DesignPoint:
    """One explored design point: parameters plus its estimate."""

    params: Dict[str, object]
    estimate: Estimate

    @property
    def cycles(self) -> float:
        return self.estimate.cycles

    @property
    def alms(self) -> int:
        return self.estimate.alms

    @property
    def valid(self) -> bool:
        """Fits on the target device (invalid points shown red in Fig. 5)."""
        return self.estimate.fits()


@dataclass
class ExplorationResult:
    """Outcome of exploring one benchmark's design space."""

    benchmark: str
    dataset: Dataset
    points: List[DesignPoint] = field(default_factory=list)
    space_cardinality: int = 0
    legal_sampled: int = 0
    elapsed_seconds: float = 0.0
    shards: int = 1
    workers: int = 1
    restored: int = 0
    total_shards: int = 0  # full partition size (== shards unless ranged)
    shard_range: Optional[Tuple[int, int]] = None
    steals: int = 0
    requeued: int = 0

    @property
    def valid_points(self) -> List[DesignPoint]:
        return [p for p in self.points if p.valid]

    @property
    def pareto(self) -> List[DesignPoint]:
        """Pareto-optimal valid designs: minimize (cycles, ALMs)."""
        return pareto_front(
            self.valid_points, key=lambda p: (p.cycles, float(p.alms))
        )

    @property
    def best(self) -> Optional[DesignPoint]:
        """The fastest valid design."""
        valid = self.valid_points
        return min(valid, key=lambda p: p.cycles) if valid else None

    @property
    def seconds_per_point(self) -> float:
        if not self.points:
            return 0.0
        return self.elapsed_seconds / len(self.points)

    def pareto_sample(self, count: int) -> List[DesignPoint]:
        """Evenly spaced selection of ``count`` Pareto points (Table III
        evaluates five Pareto points per benchmark).

        The fastest point always comes first; from two points on, the
        smallest comes last. ``count <= 0`` selects nothing.
        """
        front = self.pareto
        if count <= 0:
            return []
        if len(front) <= count:
            return front
        step = (len(front) - 1) / max(count - 1, 1)
        return [front[round(i * step)] for i in range(count)]


def explore(
    benchmark: Benchmark,
    estimator: Estimator,
    dataset: Optional[Dataset] = None,
    max_points: int = DEFAULT_MAX_POINTS,
    seed: int = 1,
    progress_every: int = PROGRESS_EVERY,
    shards: Optional[Union[int, str]] = None,
    workers: int = 1,
    checkpoint_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    batch_size: int = DEFAULT_BATCH_SIZE,
    shard_range: Optional[Tuple[int, int]] = None,
    tail_split: bool = True,
) -> ExplorationResult:
    """Explore ``benchmark``'s design space with ``estimator``.

    ``shards`` defaults to ``workers`` (one shard per worker); any
    explicit value yields the same points and Pareto front, only
    different heartbeat/checkpoint granularity. ``shards="auto"`` sizes
    micro-shards ≫ workers from the runtime's cost model so the
    streaming scheduler can work-steal around expensive regions
    (``tail_split`` additionally re-splits the final straggler in
    flight). ``workers > 1`` forks a process pool after the estimator is
    trained. ``checkpoint_dir`` writes per-shard JSONL checkpoints
    there; ``resume=True`` restores completed work from that directory
    instead of re-estimating it.

    ``shard_range=(lo, hi)`` sweeps only shards ``lo..hi-1`` of the full
    partition — the multi-host knob: disjoint ranges on different hosts,
    checkpointing into one directory, tile the serial point set exactly
    and are reunited by :func:`merge_checkpoints`. A ranged result's
    points/Pareto cover just that range; conservation is enforced over
    the range.

    When the estimator caches (the default), each shard estimates fresh
    designs in blocks of ``batch_size`` through the vectorized
    ``estimate_many`` path and dedupes repeat points via the shared
    design-point cache; results are bit-identical to per-point
    estimation (``--no-cache``).
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if shards is None:
        shards = workers
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if shard_range is not None and checkpoint_dir is None:
        raise ValueError(
            "shard_range requires checkpoint_dir — a ranged sweep is only "
            "useful if its shards land somewhere a merge can find them"
        )

    dataset = dataset or benchmark.default_dataset()
    space = benchmark.param_space(dataset)

    with obs.span(
        "explore", bench=benchmark.name, budget=max_points, seed=seed,
        shards=str(shards), workers=workers,
    ) as sp:
        plan = plan_shards(
            space, seed, max_points, shards,
            shard_range=shard_range, workers=workers,
        )
        obs.counter("dse.points.sampled").inc(plan.total_points)

        store = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None else None
        )
        run = run_plan(
            benchmark, estimator, dataset, plan,
            workers=workers, store=store, resume=resume,
            progress_every=progress_every, batch_size=batch_size,
            tail_split=tail_split,
        )
        records, conservation = merge_outcomes(plan, run.outcomes)
        conservation.verify()

        result = ExplorationResult(
            benchmark=benchmark.name,
            dataset=dataset,
            space_cardinality=plan.space_cardinality,
            legal_sampled=plan.total_points,
            elapsed_seconds=run.elapsed_s,
            shards=plan.n_shards,
            workers=run.workers,
            restored=run.restored,
            total_shards=plan.planned_shards,
            shard_range=plan.shard_range,
            steals=run.steals,
            requeued=run.requeued,
        )
        result.points = [
            DesignPoint(r.params, r.estimate)
            for r in records if not r.illegal
        ]
        sp.set(
            points=len(result.points),
            valid=sum(1 for p in result.points if p.valid),
            restored=run.restored,
            steals=run.steals,
            elapsed_s=round(result.elapsed_seconds, 6),
        )
    return result


def merge_checkpoints(
    directory: Union[str, Path],
    estimator: Estimator,
) -> ExplorationResult:
    """Merge a (possibly multi-host) checkpoint directory, estimating nothing.

    Reads the run manifest, re-plans the full shard partition from it,
    loads every shard file — however many hosts' ``--shard-range`` runs
    produced them — and reassembles the global point list under the
    Conservation ledger. The result is bit-identical to the serial sweep
    the manifest describes; a missing range or a duplicated shard is a
    :class:`~repro.runtime.ConservationError`, never a silently smaller
    front.
    """
    from ..apps import get_benchmark

    directory = Path(directory)
    manifest = read_manifest(directory)
    benchmark = get_benchmark(manifest["benchmark"])
    dataset = dict(manifest["dataset"])
    with obs.span(
        "merge_checkpoints", bench=benchmark.name, dir=str(directory),
    ) as sp:
        space = benchmark.param_space(dataset)
        plan = plan_shards(
            space, manifest["seed"], manifest["max_points"],
            manifest["shards"],
        )
        store = CheckpointStore(directory)
        states = store.load(benchmark.name, dataset, plan)
        store.hydrate(states, estimator.board)
        records, conservation = merge_outcomes(
            plan, outcomes_from_states(plan, states)
        )
        conservation.verify()
        result = ExplorationResult(
            benchmark=benchmark.name,
            dataset=dataset,
            space_cardinality=plan.space_cardinality,
            legal_sampled=plan.total_points,
            shards=plan.n_shards,
            restored=conservation.restored,
            total_shards=plan.planned_shards,
        )
        result.points = [
            DesignPoint(r.params, r.estimate)
            for r in records if not r.illegal
        ]
        sp.set(
            points=len(result.points),
            hosts=len(store.host_manifests()),
        )
    return result

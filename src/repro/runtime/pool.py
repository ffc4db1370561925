"""Worker pool: run a shard plan serially or across forked processes.

The estimation work DSE distributes is embarrassingly parallel — after
the estimator is characterized and trained there is no shared mutable
state per point — so the pool's job is mostly plumbing:

* ``workers=1`` runs every shard in-process, preserving the serial
  explorer's per-point observability exactly (latency histogram, outcome
  counters, periodic ``dse.progress`` instants);
* ``workers>1`` uses a ``ProcessPoolExecutor`` on the ``fork`` start
  method, created *after* the estimator exists, so every worker inherits
  the characterized/trained models through copy-on-write memory and pays
  no per-worker cold start. Workers return per-point latencies which the
  parent replays into the same :mod:`repro.obs` instruments, and each
  completed shard emits a ``dse.shard.done`` heartbeat instant.

The parallel path submits every pending shard to the executor at once.
The executor's own call queue hands the next shard to whichever worker
frees up first, so a plan with more shards than workers load-balances
with no scheduler of its own. Per-worker busy fractions land in
``dse.worker.*.utilization`` gauges.

Every shard, on either path, is estimated by one loop
(:func:`run_shard`): bind each point onto its class skeleton, replay the
class's estimation plan on it, and correct the analyses in blocks of
:data:`BATCH_SIZE` with one vectorized NN pass — whether or not the
estimator carries caches.

Platforms without ``fork`` (Windows, macOS spawn default) fall back to
the serial path rather than re-training one estimator per worker; the
engine reports the effective worker count so callers can see that.

Checkpointing is per shard: exactly one process runs each shard and
appends to that shard's own JSONL file
(:mod:`repro.runtime.checkpoint`), so there is no cross-process file
contention; a resumed run only estimates indices missing from the files.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from .. import obs
from ..estimation.plan import Plan
from ..ir.graph import Design
from ..ir.node import IRError
from ..ir.skeleton import Skeletons, instantiate
from .checkpoint import CheckpointStore, PointRecord, ShardState
from .sharding import Shard, ShardPlan

# Analyses corrected per finish_many() call (one vectorized NN pass).
BATCH_SIZE = 32


@dataclass
class ShardOutcome:
    """The result of running one shard: fresh records plus bookkeeping.

    ``worker`` is the executing worker's pid in forked runs (0 for the
    in-process path); the parallel path aggregates per-worker busy time
    from it.
    """

    shard: int
    planned: int
    records: List[PointRecord] = field(default_factory=list)
    elapsed_s: float = 0.0
    estimated: int = 0
    restored: int = 0
    worker: int = 0


@dataclass
class RunOutcome:
    """Everything the engine produced for one plan."""

    outcomes: List[ShardOutcome] = field(default_factory=list)
    workers: int = 1
    elapsed_s: float = 0.0

    @property
    def estimated(self) -> int:
        """Points estimated live (not restored) across all shards."""
        return sum(o.estimated for o in self.outcomes)

    @property
    def restored(self) -> int:
        """Points restored from checkpoints across all shards."""
        return sum(o.restored for o in self.outcomes)


def run_shard(
    benchmark,
    estimator,
    dataset,
    shard: Shard,
    writer=None,
    skip: Optional[Set[int]] = None,
    on_point: Optional[Callable[[PointRecord], None]] = None,
) -> ShardOutcome:
    """Estimate every point of ``shard`` not in ``skip``.

    Runs in the parent (serial path) or inside a forked worker (parallel
    path). ``writer`` receives each fresh record for checkpointing;
    ``on_point`` is the serial path's per-point observability hook.

    Each point's design is instantiated on a skeleton of its structural
    class (:mod:`repro.ir.skeleton`): the first point of a class builds
    it and compiles its estimation plan
    (:meth:`~repro.estimation.estimator.Estimator.plan`), later points
    re-bind its integer parameters in place and replay that plan. Each
    point is therefore analysed as soon as it is bound, and the analyses
    are corrected in blocks of
    :data:`BATCH_SIZE` through
    :meth:`~repro.estimation.estimator.Estimator.finish_many`, one
    vectorized NN pass per block. This is the only loop, with or without
    estimation caches; estimates are bit-identical to
    :meth:`~repro.estimation.estimator.Estimator.estimate` on a fresh
    ``benchmark.build``. A point's latency is its instantiate + analyse
    time plus an even share of its block's correction time.
    """
    skip = skip or set()
    outcome = ShardOutcome(shard=shard.index, planned=len(shard))
    start = time.perf_counter()

    def emit(record: PointRecord) -> None:
        outcome.records.append(record)
        outcome.estimated += 1
        if writer is not None:
            writer.write(record)
        if on_point is not None:
            on_point(record)

    # Skeletons and their plans live for this call only: every shard
    # pays its own builds and compiles.
    skeletons: Skeletons = {}
    plans: Dict[Design, Plan] = {}
    build = functools.partial(benchmark.build, dataset)
    pending: List[tuple] = []  # (index, params, analysis, latency_s)

    def flush() -> None:
        if not pending:
            return
        t0 = time.perf_counter()
        estimates = estimator.finish_many([p[2] for p in pending])
        share = (time.perf_counter() - t0) / len(pending)
        for (index, params, _, latency_s), estimate in zip(
            pending, estimates
        ):
            emit(PointRecord(index, dict(params), estimate, latency_s + share))
        pending.clear()

    for offset, params in enumerate(shard.points):
        index = shard.start + offset
        if index in skip:
            continue
        t0 = time.perf_counter()
        try:
            # A build span and pass.build_s observation per point, so
            # traces cover all of dse.point_latency_s.
            with obs.timed("build", "pass.build_s"):
                design = instantiate(skeletons, build, params)
        except IRError:
            emit(PointRecord(index, dict(params), None,
                             time.perf_counter() - t0))
            continue
        plan = plans.get(design)
        if plan is None:
            plan = plans[design] = estimator.plan(design)
        pending.append((index, params, plan.analyze(),
                        time.perf_counter() - t0))
        if len(pending) >= BATCH_SIZE:
            flush()
    flush()
    outcome.records.sort(key=lambda r: r.index)
    if writer is not None:
        writer.done(shard)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


# -- forked-worker plumbing -------------------------------------------------

# Snapshot inherited by workers at fork time. Set immediately before the
# executor is created and cleared once it has shut down; only worker
# processes read it.
_FORK_STATE: Optional[Dict[str, object]] = None


def _worker_init() -> None:
    """Forked-worker initializer: silence the inherited obs collectors.

    Workers measure per-point latency with raw ``perf_counter`` calls and
    ship it back in their records; recording spans/metrics into the
    child's copy of the global collectors would be invisible waste.
    """
    obs.disable()


def _worker_run_shard(index: int) -> ShardOutcome:
    """Run shard ``index`` inside a forked worker.

    Shard data comes from the fork snapshot; only the index crosses the
    process boundary.
    """
    state = _FORK_STATE
    assert state is not None, "worker started without fork state"
    skip: Dict[int, Set[int]] = state["skip"]  # type: ignore[assignment]
    outcome = _run_shard_checkpointed(
        state["benchmark"], state["estimator"], state["dataset"],
        state["shards"][index],  # type: ignore[index]
        state["store"], skip.get(index, set()),
    )
    outcome.worker = os.getpid()
    return outcome


def fork_available() -> bool:
    """Whether this platform can fork workers that inherit the estimator."""
    return "fork" in multiprocessing.get_all_start_methods()


class _Heartbeat:
    """Per-point/per-shard progress flowing into :mod:`repro.obs`."""

    def __init__(self, total_points: int, total_shards: int,
                 bench: str, progress_every: int) -> None:
        self._latency = obs.histogram("dse.point_latency_s")
        self._illegal = obs.counter("dse.points.illegal")
        self._unfit = obs.counter("dse.points.unfit")
        self._valid = obs.counter("dse.points.valid")
        self._restored = obs.counter("dse.points.restored")
        self._total = total_points
        self._total_shards = total_shards
        self._bench = bench
        self._every = progress_every
        self._done = 0
        self._shards_done = 0
        self._start = time.perf_counter()

    def point(self, record: PointRecord, quiet: bool = False) -> None:
        """Record one point's outcome (and maybe a progress instant)."""
        if record.restored:
            self._restored.inc()
        else:
            if record.illegal:
                self._illegal.inc()
            else:
                self._latency.observe(record.latency_s)
                (self._valid if record.estimate.fits()
                 else self._unfit).inc()
        self._done += 1
        if quiet or not self._every or self._done % self._every:
            return
        self._instant()

    def shard(self, outcome: ShardOutcome) -> None:
        """Record a completed shard's heartbeat instant."""
        self._shards_done += 1
        obs.gauge("dse.shards.completed").set(self._shards_done)
        rate = (outcome.estimated / outcome.elapsed_s
                if outcome.elapsed_s > 0 else 0.0)
        obs.instant(
            "dse.shard.done",
            bench=self._bench,
            shard=outcome.shard,
            points=outcome.planned,
            estimated=outcome.estimated,
            restored=outcome.restored,
            points_per_sec=round(rate, 1),
            completed_shards=self._shards_done,
            total_shards=self._total_shards,
        )

    def _instant(self) -> None:
        elapsed = time.perf_counter() - self._start
        rate = self._done / elapsed if elapsed > 0 else 0.0
        obs.gauge("dse.points_per_sec").set(rate)
        obs.instant(
            "dse.progress",
            bench=self._bench,
            points=self._done,
            total=self._total,
            points_per_sec=round(rate, 1),
        )


def run_plan(
    benchmark,
    estimator,
    dataset,
    plan: ShardPlan,
    workers: int = 1,
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    progress_every: int = 1000,
) -> RunOutcome:
    """Execute ``plan``: estimate every non-restored point, in order.

    Returns one :class:`ShardOutcome` per shard (in shard order) whose
    records include both fresh and checkpoint-restored points, sorted by
    global index — the merge layer's input.
    """
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"workers must be a positive integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    states: Dict[int, ShardState] = {}
    if store is not None:
        states = store.begin(benchmark.name, dataset, plan, resume=resume)
        store.hydrate(states, estimator.board)
    skip: Dict[int, Set[int]] = {
        index: set(state.records) for index, state in states.items()
        if state.records
    }

    heartbeat = _Heartbeat(
        plan.total_points, plan.n_shards, benchmark.name, progress_every
    )
    effective_workers = workers
    if workers > 1 and not fork_available():  # pragma: no cover - platform
        effective_workers = 1

    start = time.perf_counter()
    run = RunOutcome(workers=effective_workers)
    pending: List[Shard] = []
    outcomes: Dict[int, ShardOutcome] = {}
    for shard in plan.shards:
        state = states.get(shard.index, ShardState())
        if state.complete:
            outcomes[shard.index] = ShardOutcome(
                shard=shard.index, planned=len(shard),
                restored=len(state.records),
            )
        else:
            pending.append(shard)

    if effective_workers == 1:
        for shard in pending:  # in-process, with live per-point obs
            outcome = _run_shard_checkpointed(
                benchmark, estimator, dataset, shard, store,
                skip.get(shard.index, set()), on_point=heartbeat.point,
            )
            heartbeat.shard(outcome)
            outcomes[shard.index] = outcome
    elif pending:
        _run_shards_forked(
            benchmark, estimator, dataset, pending, store, skip,
            effective_workers, heartbeat, outcomes,
        )

    # Fold restored records back in and finish per-shard bookkeeping.
    for shard in plan.shards:
        outcome = outcomes[shard.index]
        restored = states.get(shard.index, ShardState()).records
        if restored:
            outcome.records.extend(restored.values())
            outcome.restored = len(restored)
            for record in restored.values():
                heartbeat.point(record, quiet=True)
        outcome.records.sort(key=lambda r: r.index)
        run.outcomes.append(outcome)
    run.elapsed_s = time.perf_counter() - start
    return run


def _run_shard_checkpointed(
    benchmark, estimator, dataset, shard, store, skip, on_point=None,
) -> ShardOutcome:
    """:func:`run_shard` writing through ``store``'s shard file, if any."""
    writer = store.writer(shard, append=bool(skip)) if store else None
    try:
        return run_shard(
            benchmark, estimator, dataset, shard,
            writer=writer, skip=skip, on_point=on_point,
        )
    finally:
        if writer is not None:
            writer.close()


def _run_shards_forked(
    benchmark, estimator, dataset, pending, store, skip,
    workers, heartbeat, outcomes,
) -> None:
    """Parallel path: fork workers after training, replay obs in parent.

    Every pending shard goes into the executor queue up front; idle
    workers pull the next one. Workers inherit the estimator — including
    any warm estimation caches — through fork copy-on-write; each
    child's cache then grows privately for the duration of its shards.
    Fills ``outcomes`` as shards complete.
    """
    global _FORK_STATE
    _FORK_STATE = {
        "benchmark": benchmark,
        "estimator": estimator,
        "dataset": dataset,
        "shards": {shard.index: shard for shard in pending},
        "store": store,
        "skip": skip,
    }
    busy_s: Dict[int, float] = {}
    start = time.perf_counter()
    try:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
        ) as pool:
            futures = [
                pool.submit(_worker_run_shard, shard.index)
                for shard in pending
            ]
            for future in as_completed(futures):
                outcome = future.result()
                outcomes[outcome.shard] = outcome
                busy_s[outcome.worker] = (
                    busy_s.get(outcome.worker, 0.0) + outcome.elapsed_s
                )
                for record in outcome.records:
                    heartbeat.point(record, quiet=True)
                heartbeat.shard(outcome)
    finally:
        _FORK_STATE = None
    # Per-worker busy fraction over the parallel section's wall time.
    wall_s = time.perf_counter() - start
    obs.gauge("dse.workers.active").set(len(busy_s))
    for slot, pid in enumerate(sorted(busy_s)):
        obs.gauge(f"dse.worker.{slot}.utilization").set(
            round(min(busy_s[pid] / wall_s, 1.0), 4)
        )

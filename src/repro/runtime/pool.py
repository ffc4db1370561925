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

The parallel path is a *streaming* scheduler, not a static assignment:
at most ``workers`` shard pieces are in flight at once, and the rest sit
in a parent-side queue that free workers drain — natural work stealing,
so micro-shard plans (``shards="auto"``, shard count ≫ workers) keep
every worker busy even when one contiguous region of the sample is far
more expensive than the rest. Dispatches beyond each worker's initial
shard are counted as ``dse.steal``; when the queue runs dry with idle
workers left, the largest queued shard is re-split in flight into pieces
(``dse.shard.requeued``) so the final straggler tail parallelizes too.
Per-worker busy fractions land in ``dse.worker.*.utilization`` gauges.

Platforms without ``fork`` (Windows, macOS spawn default) fall back to
the serial path rather than re-training one estimator per worker; the
engine reports the effective worker count so callers can see that.

Checkpointing is per shard: workers append to their own JSONL file
(:mod:`repro.runtime.checkpoint`), so there is no cross-process file
contention. Pieces of a re-split shard share that shard's file through
line-atomic O_APPEND writes, and the parent appends the terminal
``done`` marker once every piece has finished; a resumed run only
estimates indices missing from the files either way.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from .. import obs
from ..estimation.cache import MISS, point_key
from ..ir.node import IRError
from .checkpoint import CheckpointStore, PointRecord, ShardState
from .sharding import DEFAULT_COST_MODEL, MIN_POINTS_PER_SHARD, Shard, ShardPlan

# Designs estimated per estimate_many() call on the cached/batched path.
DEFAULT_BATCH_SIZE = 32

# An in-flight tail re-split only happens when the straggler still has at
# least this many points per resulting piece.
MIN_SPLIT_POINTS = MIN_POINTS_PER_SHARD


@dataclass
class ShardOutcome:
    """The result of running one shard: fresh records plus bookkeeping.

    ``worker`` is the executing worker's pid in forked runs (0 for the
    in-process path); the scheduler aggregates per-worker busy time from
    it. For a shard run as several pieces, ``elapsed_s`` sums the
    pieces' busy time (work, not wall-clock).
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
    steals: int = 0
    requeued: int = 0

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
    batch_size: int = DEFAULT_BATCH_SIZE,
    mark_done: bool = True,
) -> ShardOutcome:
    """Estimate every point of ``shard`` not in ``skip``.

    Runs in the parent (serial path) or inside a forked worker (parallel
    path). ``writer`` receives each fresh record for checkpointing;
    ``on_point`` is the serial path's per-point observability hook.
    ``mark_done=False`` suppresses the terminal checkpoint marker — used
    for pieces of a split shard, whose completion only the parent can
    declare.

    When the estimator carries an
    :class:`~repro.estimation.cache.EstimationCaches` bundle, points are
    deduplicated against its design-point cache and fresh designs are
    estimated in blocks of ``batch_size`` through
    :meth:`~repro.estimation.estimator.Estimator.estimate_many` (one
    vectorized NN pass per block). Estimates are bit-identical to the
    per-point path either way.
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

    caches = getattr(estimator, "caches", None)
    if caches is not None and batch_size > 1:
        _run_points_batched(
            benchmark, estimator, dataset, shard, skip, emit,
            caches, batch_size,
        )
    else:
        for offset, params in enumerate(shard.points):
            index = shard.start + offset
            if index in skip:
                continue
            t0 = time.perf_counter()
            try:
                design = _build(benchmark, dataset, params)
            except IRError:
                record = PointRecord(index, dict(params), None,
                                     time.perf_counter() - t0)
            else:
                estimate = estimator.estimate(design)
                record = PointRecord(index, dict(params), estimate,
                                     time.perf_counter() - t0)
            emit(record)
    if caches is not None:
        caches.points.publish()  # lookups since the shard's last estimate
    outcome.records.sort(key=lambda r: r.index)
    if writer is not None and mark_done:
        writer.done(shard)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


def _build(benchmark, dataset, params):
    """``benchmark.build`` under a ``build`` span and ``pass.build_s``
    histogram, so traces cover all of ``dse.point_latency_s``."""
    with obs.timed("build", "pass.build_s"):
        return benchmark.build(dataset, **params)


def _run_points_batched(
    benchmark, estimator, dataset, shard, skip, emit, caches, batch_size
) -> None:
    """Cached shard path: dedupe via the points cache, estimate in blocks.

    Cache hits (including cached-illegal points, stored as ``None``) emit
    immediately; fresh legal designs are buffered and flushed through
    ``estimate_many``. Per-point latency for batched points is the build
    time plus an even share of the batch's estimation time.
    """
    pending: List[tuple] = []  # (index, params, key, design, build_s)

    def flush() -> None:
        if not pending:
            return
        t0 = time.perf_counter()
        estimates = estimator.estimate_many([p[3] for p in pending])
        share = (time.perf_counter() - t0) / len(pending)
        for (index, params, key, _, build_s), estimate in zip(
            pending, estimates
        ):
            caches.points.put(key, estimate)
            emit(PointRecord(index, dict(params), estimate, build_s + share))
        pending.clear()

    for offset, params in enumerate(shard.points):
        index = shard.start + offset
        if index in skip:
            continue
        t0 = time.perf_counter()
        key = point_key(benchmark.name, dataset, params)
        cached = caches.points.get(key)
        if cached is not MISS:
            emit(PointRecord(index, dict(params), cached,
                             time.perf_counter() - t0))
            continue
        try:
            design = _build(benchmark, dataset, params)
        except IRError:
            caches.points.put(key, None)
            emit(PointRecord(index, dict(params), None,
                             time.perf_counter() - t0))
            continue
        pending.append((index, params, key, design,
                        time.perf_counter() - t0))
        if len(pending) >= batch_size:
            flush()
    flush()


# -- forked-worker plumbing -------------------------------------------------

# Snapshot inherited by workers at fork time. Set immediately before the
# executor is created and cleared right after submission; only worker
# processes read it.
_FORK_STATE: Optional[Dict[str, object]] = None


def _worker_init() -> None:
    """Forked-worker initializer: silence the inherited obs collectors.

    Workers measure per-point latency with raw ``perf_counter`` calls and
    ship it back in their records; recording spans/metrics into the
    child's copy of the global collectors would be invisible waste.
    """
    obs.disable()


def _worker_run_piece(
    index: int, lo: int, hi: int, split: bool
) -> ShardOutcome:
    """Run points ``[lo, hi)`` of shard ``index`` inside a forked worker.

    ``split=False`` means the piece is the whole shard (the common case):
    it gets the ordinary buffered writer and writes its own ``done``
    marker. ``split=True`` pieces share the shard's file with concurrent
    siblings, so they use the line-atomic appending writer and leave the
    ``done`` marker to the parent. Shard data comes from the fork
    snapshot; only the four scalars cross the process boundary.
    """
    state = _FORK_STATE
    assert state is not None, "worker started without fork state"
    shard: Shard = state["shards"][index]  # type: ignore[index]
    store: Optional[CheckpointStore] = state["store"]  # type: ignore[assignment]
    skip: Set[int] = state["skip"].get(index, set())  # type: ignore[union-attr]
    piece = shard if (lo == 0 and hi == len(shard)) else Shard(
        index=shard.index,
        start=shard.start + lo,
        points=shard.points[lo:hi],
        seed=shard.seed,
    )
    writer = None
    if store is not None:
        writer = (
            store.piece_writer(piece) if split
            else store.writer(shard, append=bool(skip))
        )
    try:
        outcome = run_shard(
            state["benchmark"], state["estimator"], state["dataset"],
            piece, writer=writer, skip=skip,
            batch_size=state["batch_size"],  # type: ignore[arg-type]
            mark_done=not split,
        )
    finally:
        if writer is not None:
            writer.close()
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
    batch_size: int = DEFAULT_BATCH_SIZE,
    tail_split: bool = True,
) -> RunOutcome:
    """Execute ``plan``: estimate every non-restored point, in order.

    Returns one :class:`ShardOutcome` per shard (in shard order) whose
    records include both fresh and checkpoint-restored points, sorted by
    global index — the merge layer's input. ``batch_size`` controls the
    cached/batched estimation block size (see :func:`run_shard`);
    ``tail_split`` enables the in-flight re-split of the final straggler
    tail on the parallel path. Completed shards feed the process-wide
    :data:`~repro.runtime.sharding.DEFAULT_COST_MODEL`, which future
    ``shards="auto"`` plans consult.
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
        for shard in pending:
            outcomes[shard.index] = _run_shard_inline(
                benchmark, estimator, dataset, shard, store,
                skip.get(shard.index, set()), heartbeat, batch_size,
            )
    elif pending:
        run.steals, run.requeued = _run_shards_forked(
            benchmark, estimator, dataset, plan, pending, store, skip,
            effective_workers, heartbeat, outcomes, batch_size,
            tail_split=tail_split,
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
        if outcome.estimated:
            # Seed the adaptive shard sizer for future "auto" plans.
            DEFAULT_COST_MODEL.observe(outcome.estimated, outcome.elapsed_s)
    run.elapsed_s = time.perf_counter() - start
    return run


def _run_shard_inline(
    benchmark, estimator, dataset, shard, store, skip, heartbeat,
    batch_size=DEFAULT_BATCH_SIZE,
) -> ShardOutcome:
    """Serial path: run one shard in-process with live per-point obs."""
    writer = store.writer(shard, append=bool(skip)) if store else None
    try:
        outcome = run_shard(
            benchmark, estimator, dataset, shard,
            writer=writer, skip=skip, on_point=heartbeat.point,
            batch_size=batch_size,
        )
    finally:
        if writer is not None:
            writer.close()
    heartbeat.shard(outcome)
    return outcome


@dataclass
class _WorkItem:
    """One schedulable unit: a contiguous piece of a shard's points."""

    shard: Shard
    lo: int  # offset within shard.points
    hi: int
    split: bool = False  # True when the shard was re-split into pieces

    def __len__(self) -> int:
        return self.hi - self.lo


class _Scheduler:
    """Streaming dispatch of shard pieces to a forked worker pool.

    Keeps at most ``workers`` pieces in flight; everything else waits in
    a parent-side deque that free workers drain (work stealing via the
    executor queue). When the deque runs dry while workers sit idle, the
    largest queued item is re-split so the straggler tail parallelizes.
    """

    def __init__(self, pool, workers: int, pending: List[Shard],
                 store, skip, heartbeat, tail_split: bool) -> None:
        self._pool = pool
        self._workers = workers
        self._store = store
        self._skip = skip
        self._heartbeat = heartbeat
        self._tail_split = tail_split
        self._queue: Deque[_WorkItem] = deque(
            _WorkItem(shard, 0, len(shard)) for shard in pending
        )
        self._inflight: Dict[object, _WorkItem] = {}
        self._pieces: Dict[int, List[ShardOutcome]] = {}
        self._pieces_open: Dict[int, int] = {}
        self._busy_s: Dict[int, float] = {}
        self._dispatched = 0
        self.steals = 0
        self.requeued = 0

    def run(self, outcomes: Dict[int, ShardOutcome]) -> None:
        """Drive the queue to completion, filling ``outcomes``."""
        start = time.perf_counter()
        self._maybe_split_tail()  # a plan with fewer shards than workers
        self._fill()
        while self._inflight:
            done, _ = wait(self._inflight, return_when=FIRST_COMPLETED)
            for future in done:
                item = self._inflight.pop(future)
                self._collect(item, future.result(), outcomes)
            self._maybe_split_tail()
            self._fill()
        self._report_utilization(time.perf_counter() - start)

    # -- dispatch ----------------------------------------------------------

    def _fill(self) -> None:
        while self._queue and len(self._inflight) < self._workers:
            item = self._queue.popleft()
            index = item.shard.index
            self._pieces_open[index] = self._pieces_open.get(index, 0) + 1
            future = self._pool.submit(
                _worker_run_piece, index, item.lo, item.hi, item.split
            )
            self._inflight[future] = item
            self._dispatched += 1
            if self._dispatched > self._workers:
                # Every dispatch past the workers' initial shards is a
                # worker that finished early pulling queued work.
                self.steals += 1
                obs.counter("dse.steal").inc()

    def _maybe_split_tail(self) -> None:
        """Re-split the largest queued item if workers would go idle."""
        if not self._tail_split:
            return
        idle = self._workers - len(self._inflight) - len(self._queue)
        if idle <= 0 or not self._queue:
            return
        largest = max(self._queue, key=len)
        pieces = min(idle + 1, len(largest) // MIN_SPLIT_POINTS)
        if pieces < 2:
            return
        self._queue.remove(largest)
        if not largest.split:
            self._pieces_open.setdefault(largest.shard.index, 0)
            if self._store is not None:
                self._store.prepare_split(
                    largest.shard,
                    preserve=bool(self._skip.get(largest.shard.index)),
                )
        span = len(largest)
        base, extra = divmod(span, pieces)
        lo = largest.lo
        for k in range(pieces):
            size = base + (1 if k < extra else 0)
            self._queue.append(
                _WorkItem(largest.shard, lo, lo + size, split=True)
            )
            lo += size
        self.requeued += pieces
        obs.counter("dse.shard.requeued").inc(pieces)

    # -- collection --------------------------------------------------------

    def _collect(
        self,
        item: _WorkItem,
        outcome: ShardOutcome,
        outcomes: Dict[int, ShardOutcome],
    ) -> None:
        index = item.shard.index
        self._busy_s[outcome.worker] = (
            self._busy_s.get(outcome.worker, 0.0) + outcome.elapsed_s
        )
        self._pieces.setdefault(index, []).append(outcome)
        self._pieces_open[index] -= 1
        queued = any(i.shard.index == index for i in self._queue)
        if self._pieces_open[index] or queued:
            return  # more pieces of this shard still queued or running
        merged = self._merge_pieces(item.shard, self._pieces.pop(index))
        outcomes[index] = merged
        for record in merged.records:
            self._heartbeat.point(record, quiet=True)
        self._heartbeat.shard(merged)

    def _merge_pieces(
        self, shard: Shard, pieces: List[ShardOutcome]
    ) -> ShardOutcome:
        if len(pieces) == 1:
            return pieces[0]  # unsplit shard: the common case
        merged = ShardOutcome(shard=shard.index, planned=len(shard))
        for piece in pieces:
            merged.records.extend(piece.records)
            merged.estimated += piece.estimated
            merged.elapsed_s += piece.elapsed_s
        merged.worker = pieces[-1].worker
        merged.records.sort(key=lambda r: r.index)
        if self._store is not None:
            self._store.finish(shard)  # pieces left the done marker to us
        return merged

    # -- reporting ---------------------------------------------------------

    def _report_utilization(self, wall_s: float) -> None:
        """Per-worker busy fraction over the parallel section's wall time."""
        if wall_s <= 0 or not self._busy_s:
            return
        obs.gauge("dse.workers.active").set(len(self._busy_s))
        for slot, pid in enumerate(sorted(self._busy_s)):
            obs.gauge(f"dse.worker.{slot}.utilization").set(
                round(min(self._busy_s[pid] / wall_s, 1.0), 4)
            )


def _run_shards_forked(
    benchmark, estimator, dataset, plan, pending, store, skip,
    workers, heartbeat, outcomes, batch_size=DEFAULT_BATCH_SIZE,
    tail_split: bool = True,
) -> Tuple[int, int]:
    """Parallel path: fork workers after training, replay obs in parent.

    Workers inherit the estimator — including any warm estimation caches
    — through fork copy-on-write; each child's cache then grows
    privately for the duration of its shards. Returns the scheduler's
    (steals, requeued) tallies.
    """
    global _FORK_STATE
    ctx = multiprocessing.get_context("fork")
    shards_by_index = {shard.index: shard for shard in plan.shards}
    _FORK_STATE = {
        "benchmark": benchmark,
        "estimator": estimator,
        "dataset": dataset,
        "shards": shards_by_index,
        "store": store,
        "skip": skip,
        "batch_size": batch_size,
    }
    # Tail splitting can turn one pending shard into several pieces, so
    # only cap the pool by the pending count when splitting is off.
    pool_workers = (
        workers if tail_split else min(workers, max(len(pending), 1))
    )
    try:
        with ProcessPoolExecutor(
            max_workers=pool_workers,
            mp_context=ctx,
            initializer=_worker_init,
        ) as pool:
            scheduler = _Scheduler(
                pool, pool_workers, pending,
                store, skip, heartbeat, tail_split,
            )
            scheduler.run(outcomes)
    finally:
        _FORK_STATE = None
    return scheduler.steals, scheduler.requeued

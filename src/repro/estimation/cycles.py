"""Cycle count estimation (paper Section IV-B1).

The analysis is recursive over the hierarchical IR: the runtime of MetaPipe
and Sequential nodes is calculated from the runtimes of the controllers
they contain, Pipe bodies contribute their critical-path latency (ASAP
schedule, II=1), and tile transfers are modeled from the number and length
of memory commands, available off-chip bandwidth, and contention from
competing accessors.

The MetaPipe formula is the paper's:

    (N - 1) * max(cycles(n) | n in nodes) + sum(cycles(n) for n in nodes)

The recursion is compiled once per design (:class:`CyclePlan`): the tree,
each controller's kind and every Pipe's schedule are fixed, and running
the plan reads the bound integers, so one plan prices every point of a
DSE skeleton's class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design
from ..ir.memops import TileTransfer
from ..ir.node import Const, Node
from ..ir.primitives import op_latency
from ..synth.netlist import asap_schedule
from ..target.board import MAIA, Board

# Fixed model constants (fabric cycles).
PIPE_STARTUP = 4
SEQ_STAGE_SYNC = 2
METAPIPE_STAGE_SYNC = 3
PARALLEL_SYNC = 2
CMD_ISSUE_GAP = 4


@dataclass
class CycleEstimate:
    """Estimated execution cycles with a per-controller breakdown.

    ``per_controller`` is filled by :func:`estimate_cycles`; a DSE replay
    (:meth:`CyclePlan.total`) leaves it empty.
    """

    total: float
    board: Board
    per_controller: Dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.total / self.board.fabric_clock_hz


def estimate_cycles(
    design: Design, board: Board = MAIA, caches=None
) -> CycleEstimate:
    """Estimate the total runtime of ``design`` on ``board`` in cycles.

    Compiles the design's :class:`CyclePlan` and runs it once, recording
    every controller's cycles. ``caches`` is an optional
    :class:`~repro.estimation.cache.EstimationCaches`; when given, Pipe
    schedules are reused across structurally identical bodies
    (bit-identical to scheduling from scratch).
    """
    with obs.timed("cycles", "pass.cycles_s", design=design.name) as sp:
        estimate = CycleEstimate(0.0, board)
        estimate.total = CyclePlan(design, board, caches).total(
            estimate.per_controller
        )
        sp.set(cycles=estimate.total)
    return estimate


class PipeSchedule(NamedTuple):
    """What the estimator derives from one Pipe body's ASAP schedule.

    Both fields depend only on the body's structure (latencies and
    edges), never on vector widths, so one schedule serves every point
    of a structural class.
    """

    #: Critical-path latency (max ASAP end time; 1 for an empty body).
    latency: int
    #: ``(body position of the delayed input, slack)`` per
    #: delay-balancing edge, in traversal order (node, then input).
    delays: Tuple[Tuple[int, int], ...]


def pipe_body(pipe: Pipe) -> List[Node]:
    """The Pipe's scheduled body: its primitive nodes minus constants."""
    return [n for n in pipe.body_prims if not isinstance(n, Const)]


def schedule_pipe(body: List[Node]) -> PipeSchedule:
    """ASAP-schedule one Pipe body (paper Sections IV-B1 and IV-B2)."""
    times = asap_schedule(body)
    latency = max((end for _, end in times.values()), default=1)
    position = {node.nid: i for i, node in enumerate(body)}
    delays = []
    for node in body:
        start = times[node.nid][0]
        for inp in getattr(node, "inputs", []):
            if inp.nid not in times or isinstance(inp, Const):
                continue
            slack = start - times[inp.nid][1]
            if slack > 0:
                delays.append((position[inp.nid], slack))
    return PipeSchedule(latency, tuple(delays))


def pipe_schedule(pipe: Pipe, caches=None) -> PipeSchedule:
    """:func:`schedule_pipe` of ``pipe``'s body (through ``caches``)."""
    body = pipe_body(pipe)
    if caches is not None:
        return caches.pipe_info(pipe, body)
    return schedule_pipe(body)


#: A compiled controller: ``run(contention, per_controller) -> cycles``.
Program = Callable[[int, Optional[Dict[str, float]]], float]


class CyclePlan:
    """The cycle model of one design, compiled over its controller tree.

    Every controller becomes a closure that reads the design's bound
    integers (``par``, iteration counts, tile sizes) when run, so after a
    skeleton re-bind (:mod:`repro.ir.skeleton`) the same plan prices the
    new point. Structure is fixed at compile time: each controller's
    kind, its children, Pipe critical-path latencies and reduce-drain
    latencies. Running a top-level program evaluates the tree post-order
    with the same arithmetic, in the same order, as the recursive model.
    The replication-weighted transfer counts that set DRAM contention
    are read through :func:`weighted_transfers`, whose memo a re-bind
    clears.
    """

    def __init__(self, design: Design, board: Board, caches=None) -> None:
        self.board = board
        self._tops = [
            _compile(top, board, caches) for top in design.top_controllers
        ]

    def total(
        self, per_controller: Optional[Dict[str, float]] = None
    ) -> float:
        """Total cycles at the bound point; fills ``per_controller``."""
        total = 0.0
        for top in self._tops:
            total += top(0, per_controller)
        return total


def _compile(ctrl: Controller, board: Board, caches=None) -> Program:
    """``ctrl``'s program: its kind's rule, recording into the breakdown."""
    rule = _compile_rule(ctrl, board, caches)
    label = f"{ctrl.name}#{ctrl.nid}"

    def run(contention: int, per: Optional[Dict[str, float]]) -> float:
        cycles = rule(contention, per)
        if per is not None:
            per[label] = cycles
        return cycles

    return run


def _compile_rule(ctrl: Controller, board: Board, caches=None) -> Program:
    if isinstance(ctrl, TileTransfer):
        return lambda contention, per: transfer_cycles(
            ctrl, board, contention + 1
        )
    if isinstance(ctrl, Pipe):
        return _pipe_rule(ctrl, caches)
    children = [(c, _compile(c, board, caches)) for c in ctrl.stages]
    if isinstance(ctrl, Parallel):
        # Children run concurrently: each child's transfers compete with
        # every *other* child's transfers (plus anything already active).
        def parallel(contention, per):
            cycles = max(
                (
                    run(_overlap_contention(ctrl, child, contention), per)
                    for child, run in children
                ),
                default=0.0,
            )
            return cycles + PARALLEL_SYNC

        return parallel
    if isinstance(ctrl, MetaPipe):
        # Stages overlap in steady state: their transfers compete for DRAM.
        def metapipe(contention, per):
            stage_cycles = [
                run(_overlap_contention(ctrl, child, contention), per)
                for child, run in children
            ]
            stage_cycles = [c + METAPIPE_STAGE_SYNC for c in stage_cycles]
            n = ctrl.iterations
            return (n - 1) * max(stage_cycles, default=0.0) + sum(
                stage_cycles
            )

        return metapipe
    if isinstance(ctrl, Sequential):
        # Stages run one at a time, but replicated loop bodies (par > 1)
        # execute concurrently and compete for DRAM.
        def sequential(contention, per):
            stage_cycles = [
                run(contention + (ctrl.par - 1) * weighted_transfers(child),
                    per)
                for child, run in children
            ]
            per_iter = sum(c + SEQ_STAGE_SYNC for c in stage_cycles)
            return ctrl.iterations * per_iter

        return sequential
    return lambda contention, per: 0.0  # pragma: no cover - exhaustive


def _pipe_rule(pipe: Pipe, caches=None) -> Program:
    """Latency of one Pipe: critical path + (N-1) at II=1 (+ reduce drain)."""
    latency = pipe_schedule(pipe, caches).latency
    drain = None
    if pipe.accum is not None and pipe.result is not None:
        tp = getattr(pipe.result, "tp", None)
        if tp is not None:
            drain = op_latency(pipe.accum[0], tp)

    def run(contention, per):
        n = pipe.iterations
        cycles = PIPE_STARTUP + latency + max(n - 1, 0)
        if drain is not None:
            par = pipe.par
            tree_depth = math.ceil(math.log2(par)) if par > 1 else 0
            cycles += (tree_depth + 1) * drain
        return cycles

    return run


def transfer_cycles(
    transfer: TileTransfer, board: Board, contention: int
) -> float:
    """Cycles for one tile load/store including command issue and bandwidth.

    The transfer streams ``words`` at a rate bounded by (a) its own
    parallelization factor (words accepted per fabric cycle) and (b) a fair
    share of achievable DRAM bandwidth across ``contention`` concurrent
    streams. Command issue is pipelined but each distinct command (one per
    non-contiguous row) pays an issue gap; the DRAM round-trip latency is
    paid once.
    """
    word_bits = transfer.offchip.tp.bits
    # Each command moves one contiguous row, rounded up to whole bursts
    # (the estimator models "the number and length of memory commands").
    row_bits = transfer.contiguous_words * word_bits
    row_bytes = board.burst_aligned_bytes(-(-row_bits // 8))
    total_bytes = transfer.num_commands * row_bytes

    bw_words_per_cycle = board.bytes_per_cycle * 8.0 / word_bits
    rate = min(float(transfer.par), bw_words_per_cycle / max(contention, 1))
    rate = max(rate, 1e-9)
    stream = (total_bytes * 8.0 / word_bits) / rate
    issue = transfer.num_commands * CMD_ISSUE_GAP
    return board.dram_latency_cycles + max(stream, issue)


def weighted_transfers(ctrl: Controller) -> int:
    """Concurrent transfer streams under ``ctrl``, counting replication.

    A transfer inside a parallelized outer loop is instantiated once per
    replica, so it contributes its enclosing loops' parallelization product.
    The count is structural, so it is memoized on the controller: the
    cycles pass asks for it once per enclosing stage.
    """
    total = getattr(ctrl, "_weighted_transfers", None)
    if total is None:
        if isinstance(ctrl, TileTransfer):
            total = 1
        else:
            total = sum(weighted_transfers(c) for c in ctrl.stages)
            if not isinstance(ctrl, Pipe) and ctrl.par > 1:
                total *= ctrl.par
        ctrl._weighted_transfers = total
    return total


def _overlap_contention(
    parent: Controller, child: Controller, contention: int
) -> int:
    """Streams competing with ``child`` when ``parent``'s stages overlap.

    All of ``parent``'s transfer instances (across stages and replicas) are
    active concurrently; the child's own single instance is excluded — the
    leaf adds itself back. ``parent`` is a MetaPipe or Parallel, so its
    instance count ``par * sum(stage streams)`` is exactly
    :func:`weighted_transfers` of ``parent``.
    """
    return contention + weighted_transfers(parent) - weighted_transfers(child)

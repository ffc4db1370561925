"""Cycle count estimation (paper Section IV-B1).

The analysis is recursive over the hierarchical IR: the runtime of MetaPipe
and Sequential nodes is calculated from the runtimes of the controllers
they contain, Pipe bodies contribute their critical-path latency (ASAP
schedule, II=1), and tile transfers are modeled from the number and length
of memory commands, available off-chip bandwidth, and contention from
competing accessors.

The MetaPipe formula is the paper's:

    (N - 1) * max(cycles(n) | n in nodes) + sum(cycles(n) for n in nodes)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design
from ..ir.memops import TileTransfer
from ..ir.node import Const
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
    """Estimated execution cycles with a per-controller breakdown."""

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

    ``caches`` is an optional
    :class:`~repro.estimation.cache.EstimationCaches`; when given, Pipe
    critical-path latencies are reused across structurally identical
    bodies (bit-identical to scheduling from scratch).
    """
    with obs.timed("cycles", "pass.cycles_s", design=design.name) as sp:
        estimate = CycleEstimate(0.0, board)
        total = 0.0
        for top in design.top_controllers:
            total += _controller_cycles(top, board, 0, estimate, caches)
        estimate.total = total
        sp.set(cycles=total)
    return estimate


def _controller_cycles(
    ctrl: Controller,
    board: Board,
    contention: int,
    estimate: CycleEstimate,
    caches=None,
) -> float:
    if isinstance(ctrl, TileTransfer):
        cycles = transfer_cycles(ctrl, board, contention + 1)
    elif isinstance(ctrl, Pipe):
        cycles = _pipe_cycles(ctrl, caches)
    elif isinstance(ctrl, Parallel):
        # Children run concurrently: each child's transfers compete with
        # every *other* child's transfers (plus anything already active).
        cycles = max(
            (
                _controller_cycles(
                    child, board, _overlap_contention(ctrl, child, contention),
                    estimate, caches,
                )
                for child in ctrl.stages
            ),
            default=0.0,
        )
        cycles += PARALLEL_SYNC
    elif isinstance(ctrl, MetaPipe):
        # Stages overlap in steady state: their transfers compete for DRAM.
        stage_cycles = [
            _controller_cycles(
                child, board, _overlap_contention(ctrl, child, contention),
                estimate, caches,
            )
            for child in ctrl.stages
        ]
        stage_cycles = [c + METAPIPE_STAGE_SYNC for c in stage_cycles]
        n = ctrl.iterations
        body = (n - 1) * max(stage_cycles, default=0.0) + sum(stage_cycles)
        cycles = body
    elif isinstance(ctrl, Sequential):
        # Stages run one at a time, but replicated loop bodies (par > 1)
        # execute concurrently and compete for DRAM.
        stage_cycles = [
            _controller_cycles(
                child,
                board,
                contention + (ctrl.par - 1) * weighted_transfers(child),
                estimate,
                caches,
            )
            for child in ctrl.stages
        ]
        per_iter = sum(c + SEQ_STAGE_SYNC for c in stage_cycles)
        cycles = ctrl.iterations * per_iter
    else:  # pragma: no cover - exhaustive over controller kinds
        cycles = 0.0
    estimate.per_controller[f"{ctrl.name}#{ctrl.nid}"] = cycles
    return cycles


def _pipe_cycles(pipe: Pipe, caches=None) -> float:
    """Latency of one Pipe: critical path + (N-1) at II=1 (+ reduce drain)."""
    body = [n for n in pipe.body_prims if not isinstance(n, Const)]
    if caches is not None:
        latency = caches.pipe_info(pipe, body).latency
    else:
        times = asap_schedule(body)
        latency = max((end for _, end in times.values()), default=1)
    n = pipe.iterations
    cycles = PIPE_STARTUP + latency + max(n - 1, 0)
    if pipe.accum is not None and pipe.result is not None:
        tp = getattr(pipe.result, "tp", None)
        if tp is not None:
            tree_depth = math.ceil(math.log2(pipe.par)) if pipe.par > 1 else 0
            cycles += (tree_depth + 1) * op_latency(pipe.accum[0], tp)
    return cycles


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

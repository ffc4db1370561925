"""Hybrid area estimation (paper Section IV-B2).

Two-step approach:

1. **Raw counting** — walk the design's IR and sum the characterized
   template models for every node, including delay-balancing resources
   computed from an ASAP schedule of each Pipe body (slack times path
   width, registers below a threshold, BRAM delay lines above it). The
   walk is compiled once per design into an :class:`AreaPlan` whose
   replay reads the bound integers, so a DSE prices every point of a
   skeleton's class without walking the IR again.

2. **Design-level corrections** — feed the raw counts into the trained
   neural networks to estimate routing LUTs, duplicated registers, and
   unavailable LUTs; estimate duplicated block RAMs as a linear function of
   routing LUTs; then apply the LUT-packing model and the two-registers-
   per-compute-unit rule to obtain final ALM, DSP, and BRAM counts.

The estimator predicts toolchain optimizations (floating-point multiply-add
fusion, reduction-tree fusion) with fixed heuristics; mispredictions of
these are a real error source, as the paper observes for gemm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..ir.controllers import Controller, MetaPipe, Parallel, Pipe, Sequential
from ..ir.graph import Design
from ..ir.memories import BRAM, OnChipMemory, PriorityQueue, Reg
from ..ir.memops import TileTransfer
from ..ir.node import Const, Node, Value
from ..ir.primitives import LoadOp, Prim, StoreOp
from ..synth.netlist import DELAY_BRAM_THRESHOLD
from ..target.board import MAIA, Board
from .characterize import TemplateModels
from .counts import Counts
from .cycles import pipe_body, pipe_schedule

# Heuristic predictions of toolchain fusion optimizations. These are the
# estimator's guesses; the toolchain's true behavior differs slightly.
EST_FMA_DISCOUNT = 0.72
EST_TREE_DISCOUNT = 0.75


@dataclass
class RawArea:
    """Output of the raw-counting pass."""

    counts: Counts = field(default_factory=Counts)
    wire_bits: float = 0.0


@dataclass
class AreaEstimate:
    """Final area estimate with the correction breakdown."""

    alms: int
    dsps: int
    brams: int
    regs: int
    raw: Counts
    routing_luts: float
    duplicated_regs: float
    duplicated_brams: float
    unavailable_luts: float

    def utilization(self, device) -> Dict[str, float]:
        """Estimated utilization fraction per device resource class."""
        return {
            "alms": self.alms / device.alms,
            "dsps": self.dsps / device.dsps,
            "brams": self.brams / device.bram_blocks,
        }

    def fits(self, device) -> bool:
        """Whether the estimated design fits on ``device``."""
        return (
            self.alms <= device.alms
            and self.dsps <= device.dsps
            and self.brams <= device.bram_blocks
        )


def raw_area(design: Design, models: TemplateModels, caches=None) -> RawArea:
    """Sum characterized template models over every node in the design.

    Outer-loop parallelization replicates hardware, so every template's
    counts are scaled by the replication factor of its scope. Compiles
    the design's :class:`AreaPlan` and replays it once.

    ``caches`` is an optional
    :class:`~repro.estimation.cache.EstimationCaches`: template
    predictions are memoized and Pipe schedules are reused across
    structurally identical bodies. Results are bit-identical with and
    without it.
    """
    return AreaPlan(design, models, caches).replay()


#: Reads a template's parameters at the bound point: ``(name, value)``
#: pairs sorted by name, or ``None`` when the template has no instance.
Reader = Callable[[], Optional[Tuple[Tuple[str, object], ...]]]


class _Top:
    """The scope of a top-level node: a single hardware copy."""

    body_replication = 1


_TOP = _Top()


def _scope(node: Node) -> object:
    """The node whose ``body_replication`` is ``node``'s replication."""
    return node.parent if node.parent is not None else _TOP


class AreaPlan:
    """The raw-counting pass of one design, compiled into a flat list.

    With ``caches`` (an
    :class:`~repro.estimation.cache.EstimationCaches`), the plan predicts
    through the template LRU and Pipe schedules come from the schedule
    cache. Compiling walks the design once and records, in accumulation
    order, one term per template instance and per delay-balancing edge,
    then the wire-bit terms.

    A term is a ``(key, read, scope, scale, brams)`` tuple. A template
    term predicts template ``key`` at the parameters ``read()`` returns,
    multiplies every resource by ``scale`` (an FMA or reduction-tree
    discount) and takes its BRAMs from ``brams()`` (analytic block
    geometry) when given. A delay-balancing edge has ``key=None``:
    ``read()`` is the delayed value's bits and ``scale`` its ASAP slack.
    Every term is replicated ``scope.body_replication`` times.

    Fixed at compile time: which templates
    exist, their keys, their structural parameters (bit widths, stage
    counts, counter dimensions, double buffering), FMA and tree
    discounts, and every edge's ASAP slack. Read at replay: vector
    widths, banks, ``par``, command counts, queue depths, BRAM sizes and
    replication factors. After a skeleton re-bind
    (:mod:`repro.ir.skeleton`) :meth:`replay` therefore prices the new
    point, with the same float operations in the same order as a fresh
    compile, so results are bit-identical.
    """

    def __init__(
        self, design: Design, models: TemplateModels, caches=None
    ) -> None:
        device = models.device
        if caches is not None:
            models = caches.wrap_templates(models)
        self.terms: List[Tuple] = []
        for ctrl in design.controllers():
            _compile_controller(
                ctrl, models, _emitter(self.terms, _scope(ctrl)), caches
            )
        for mem in design.onchip_mems():
            _compile_memory(mem, _emitter(self.terms, _scope(mem)), device)
        self.wires: List[Tuple[int, Node, object]] = [
            (node.tp.bits, node, _scope(node)) for node in design.nodes
            if isinstance(node, Value) and not isinstance(node, Const)
        ]
        self._predict = models.predict_tuple

    def replay(self) -> RawArea:
        """The raw counts and wire bits of the design's bound point."""
        predict = self._predict
        lp = lu = regs = dsps = brams = 0.0
        for key, read, scope, scale, bram_blocks in self.terms:
            factor = scope.body_replication
            if key is None:  # delay line: registers, or BRAM when long
                bits = read()
                if scale > DELAY_BRAM_THRESHOLD:
                    blocks = max(1.0, bits * scale / (20 * 1024 * 0.8))
                    brams += blocks * factor
                else:
                    regs += bits * scale * factor
                continue
            params = read()
            if params is None:
                continue
            p, u, r, d, b = predict(key, params)
            if scale is not None:
                p, u, r = p * scale, u * scale, r * scale
                d, b = d * scale, b * scale
            if bram_blocks is not None:
                b = bram_blocks()
            lp += p * factor
            lu += u * factor
            regs += r * factor
            dsps += d * factor
            brams += b * factor
        wire_bits = 0.0
        for bits, node, scope in self.wires:
            wire_bits += bits * max(node.width, 1) * scope.body_replication
        return RawArea(Counts(lp, lu, regs, dsps, brams), wire_bits)


#: Appends one term of a fixed scope: ``emit(key, read, scale, brams)``.
Emit = Callable[..., None]


def _emitter(terms: List[Tuple], scope: object) -> Emit:
    append = terms.append

    def emit(key, read, scale=None, brams=None) -> None:
        append((key, read, scope, scale, brams))

    return emit


# -- parameter readers (names sorted, as the template cache keys them) -------


def _fixed(params: Tuple[Tuple[str, object], ...]) -> Reader:
    return lambda: params


def _prim_params(bits: int, lanes: Node, field: str = "width") -> Reader:
    """A primitive of ``lanes.<field>`` lanes."""
    return lambda: (("bits", bits), ("width", getattr(lanes, field)))


def _access_params(
    bits: int, lanes: Node, mem: OnChipMemory, field: str = "width"
) -> Reader:
    """A load or store of ``lanes.<field>`` lanes into ``mem``'s banks."""
    return lambda: (
        ("banks", mem.banks), ("bits", bits), ("width", getattr(lanes, field)),
    )


def _delay_bits(value: Node) -> Callable[[], int]:
    bits = value.tp.bits
    return lambda: bits * max(value.width, 1)


# -- per-template rules ---------------------------------------------------


def _compile_controller(
    ctrl: Controller, models, emit: Emit, caches=None
) -> None:
    if ctrl.cchain is not None:
        ndims = len(ctrl.cchain.dims)
        emit("counter", lambda: (("ndims", ndims), ("par", ctrl.par)))
    if isinstance(ctrl, Pipe):
        _compile_pipe(ctrl, models, emit, caches)
    elif isinstance(ctrl, TileTransfer):
        bits = ctrl.offchip.tp.bits
        emit("tile_transfer", lambda: (
            ("bits", bits), ("num_commands", ctrl.num_commands),
            ("par", ctrl.par),
        ))
    elif isinstance(ctrl, MetaPipe):
        emit("metapipe", _fixed((("n", len(ctrl.stages)),)))
        _compile_outer_prims(ctrl, models, emit)
        _compile_accum(ctrl, models, emit)
    elif isinstance(ctrl, Parallel):
        emit("parallel", _fixed((("n", len(ctrl.stages)),)))
    elif isinstance(ctrl, Sequential):
        emit("sequential", _fixed((("n", len(ctrl.stages)),)))
        _compile_outer_prims(ctrl, models, emit)
        _compile_accum(ctrl, models, emit)


def _compile_outer_prims(ctrl: Controller, models, emit: Emit) -> None:
    for node in ctrl.body_prims:
        if isinstance(node, Prim):
            emit(
                models.prim_key(node.op, node.tp),
                _prim_params(node.tp.bits, node),
            )


def _compile_accum(ctrl: Controller, models, emit: Emit) -> None:
    if ctrl.accum is None:
        return
    op, target = ctrl.accum
    tp = target.tp
    key = models.prim_key(op, tp)
    if isinstance(target, BRAM):
        # One accumulator lane per bank.
        emit(key, _prim_params(tp.bits, target, "banks"))
        emit("load", _access_params(tp.bits, target, target, "banks"))
        emit("store", _access_params(tp.bits, target, target, "banks"))
    else:
        emit(key, _fixed((("bits", tp.bits), ("width", 1))))


def _compile_pipe(pipe: Pipe, models, emit: Emit, caches=None) -> None:
    body = pipe_body(pipe)
    emit("pipe", _fixed((("n", len(body)),)))

    fused_adds = _predict_fma_fusions(body)
    for node in body:
        if isinstance(node, Prim):
            emit(
                models.prim_key(node.op, node.tp),
                _prim_params(node.tp.bits, node),
                EST_FMA_DISCOUNT if node.nid in fused_adds else None,
            )
        elif isinstance(node, LoadOp):
            emit("load", _access_params(node.tp.bits, node, node.mem))
        elif isinstance(node, StoreOp):
            emit("store", _access_params(node.mem.tp.bits, node, node.mem))
    _compile_reduce_tree(pipe, models, emit)
    # Delay-balancing resources from ASAP slack (paper Section IV-B2).
    for position, slack in pipe_schedule(pipe, caches).delays:
        emit(None, _delay_bits(body[position]), slack)


def _compile_reduce_tree(pipe: Pipe, models, emit: Emit) -> None:
    if pipe.accum is None or not isinstance(pipe.result, Value):
        return
    op, _ = pipe.accum
    tp = pipe.result.tp
    key = models.prim_key(op, tp)
    bits = tp.bits

    def tree() -> Optional[Tuple[Tuple[str, object], ...]]:
        tree_ops = pipe.par - 1
        return (("bits", bits), ("width", tree_ops)) if tree_ops > 0 else None

    fused = tp.is_float and op in ("add", "sub")
    emit(key, tree, EST_TREE_DISCOUNT if fused else None)
    emit(key, _fixed((("bits", bits), ("width", 1))))


def _predict_fma_fusions(body: List[Node]) -> set:
    consumers: Dict[int, List[Node]] = {}
    for node in body:
        for inp in getattr(node, "inputs", []):
            consumers.setdefault(inp.nid, []).append(node)
    fused = set()
    for node in body:
        if not (isinstance(node, Prim) and node.op == "mul" and node.tp.is_float):
            continue
        outs = consumers.get(node.nid, [])
        if len(outs) == 1 and isinstance(outs[0], Prim):
            if outs[0].op in ("add", "sub") and outs[0].tp.is_float:
                fused.add(outs[0].nid)
    return fused


def _compile_memory(mem: OnChipMemory, emit: Emit, device) -> None:
    bits = mem.tp.bits
    double = mem.double_buffered
    if isinstance(mem, BRAM):
        emit(
            "bram",
            lambda: (("banks", mem.banks), ("bits", bits), ("double", double)),
            brams=lambda: float(_bram_blocks(mem, device)),
        )
    elif isinstance(mem, PriorityQueue):
        emit("pqueue", lambda: (("bits", bits), ("depth", mem.depth)))
    elif isinstance(mem, Reg):
        emit("reg", _fixed((("bits", bits), ("double", double))))


def _bram_blocks(mem: BRAM, device) -> int:
    """Physical blocks of ``mem``'s banks (twice that when double buffered)."""
    words_per_bank = -(-mem.size // max(mem.banks, 1))
    blocks = mem.banks * device.bram_blocks_for(words_per_bank, mem.tp.bits)
    if mem.double_buffered:
        blocks *= 2
    return blocks


# -- hybrid estimate ---------------------------------------------------------------


def _finalize_area(
    raw_counts: Counts,
    device,
    routing: float,
    dup_regs: float,
    unavailable: float,
    dup_brams: float,
) -> AreaEstimate:
    """LUT packing + register overflow: corrections -> final AreaEstimate.

    Shared by the single-design and batched paths so both produce
    bit-identical results from the same corrections.
    """
    # Routing LUTs are assumed always packable (paper Section IV-B2).
    packable = raw_counts.luts_packable + routing
    unpackable = raw_counts.luts_unpackable
    rate = device.lut_pack_rate
    lut_units = (
        unpackable + packable * (1.0 - rate) + packable * rate / 2.0
    )
    lut_units += unavailable

    total_regs = raw_counts.regs + dup_regs
    extra_reg_alms = max(
        0.0, total_regs - device.regs_per_alm * lut_units
    )
    extra_reg_alms /= device.regs_per_alm
    alms = lut_units + extra_reg_alms

    return AreaEstimate(
        alms=int(round(alms)),
        dsps=int(round(raw_counts.dsps)),
        brams=int(round(raw_counts.brams + dup_brams)),
        regs=int(round(total_regs)),
        raw=raw_counts,
        routing_luts=routing,
        duplicated_regs=dup_regs,
        duplicated_brams=dup_brams,
        unavailable_luts=unavailable,
    )


def raw_analysis(
    design: Design, models: TemplateModels, caches=None
) -> Tuple[RawArea, List[float]]:
    """Raw counts and the correction networks' features for one design.

    The per-design half of :func:`hybrid_area`; it reads the design only
    here, so its result outlives later changes to the design.
    """
    from .features import design_features  # local import to avoid cycle

    with obs.timed("area.raw", "pass.area_raw_s", design=design.name):
        raw = raw_area(design, models, caches)
        return raw, design_features(design, raw.counts, raw.wire_bits)


def hybrid_area(
    design: Design,
    models: TemplateModels,
    corrections,
    board: Board = MAIA,
    caches=None,
) -> AreaEstimate:
    """Raw counts + NN corrections + LUT packing -> final area estimate.

    ``corrections`` is a :class:`repro.estimation.train.CorrectionModels`.
    """
    device = board.device
    with obs.timed("area", "pass.area_s", design=design.name):
        raw, feats = raw_analysis(design, models, caches)

        # The NN corrections are the one non-analytical estimation stage;
        # timed separately so Table IV decomposes into model vs NN time.
        with obs.timed("area.nn", "pass.area_nn_s"):
            routing = corrections.predict_routing_luts(feats, raw.counts)
            dup_regs = corrections.predict_duplicated_regs(feats, raw.counts)
            unavailable = corrections.predict_unavailable_luts(
                feats, raw.counts
            )
            dup_brams = corrections.predict_duplicated_brams(
                routing, raw.counts
            )

        return _finalize_area(
            raw.counts, device, routing, dup_regs, unavailable, dup_brams
        )


def corrected_areas(
    raws: Sequence[RawArea],
    feats: Sequence[List[float]],
    corrections,
    board: Board = MAIA,
) -> List[AreaEstimate]:
    """NN corrections for a block of :func:`raw_analysis` results at once.

    The four correction models run as one vectorized forward pass over
    the whole block. The MLP forward is batch-size invariant
    (:meth:`repro.estimation.nn.MLP.predict`), so results are
    bit-identical to correcting each design alone.
    """
    with obs.timed("area.nn", "pass.area_nn_s", batch=len(raws)):
        routing, dup_regs, unavailable, dup_brams = corrections.predict_batch(
            feats, [raw.counts for raw in raws]
        )
    return [
        _finalize_area(
            raw.counts,
            board.device,
            float(routing[i]),
            float(dup_regs[i]),
            float(unavailable[i]),
            float(dup_brams[i]),
        )
        for i, raw in enumerate(raws)
    ]

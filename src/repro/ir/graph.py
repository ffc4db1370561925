"""The DHDL design container: graph construction, finalization, validation.

A :class:`Design` owns every node of one DHDL program instance. Designs are
built with concrete parameter values (metaprogramming, paper Section III):
the same builder function called with different tile sizes, parallelization
factors, and MetaPipe toggles yields different design instances.

Construction records structure as it goes: each controller's ``stages``
and ``body_prims`` lists, each on-chip memory's ``transfers``, and each
controller's ``body_replication``. Finalization and estimation read these
instead of rescanning the node list, so one design point costs O(nodes).

Finalization derives the properties the paper's tools infer automatically:

* vector widths of primitive nodes from enclosing Pipe parallelization;
* banking factors of on-chip memories from accessor vector widths;
* double-buffering of communication buffers between MetaPipe stages.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .controllers import (
    Controller,
    CounterIter,
    MetaPipe,
    Parallel,
    Pipe,
    Sequential,
)
from .memops import TileLd, TileSt, TileTransfer
from .memories import BRAM, OffChipMem, OnChipMemory, Reg
from .node import Const, IRError, Node, Value, result_type
from .primitives import LoadOp, Prim, StoreOp
from .types import Bool, FixPt, FltPt, HWType, Index

_ACTIVE_DESIGNS: List["Design"] = []


def current_design() -> "Design":
    """The design currently open via ``with design:`` (builder API)."""
    if not _ACTIVE_DESIGNS:
        raise IRError("no active design; wrap construction in 'with Design(...):'")
    return _ACTIVE_DESIGNS[-1]


class Design:
    """A complete DHDL program: a parameterized hierarchical dataflow graph."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.nodes: List[Node] = []
        self.offchip_mems: List[OffChipMem] = []
        self.top_mems: List[OnChipMemory] = []
        self.arg_outs: List[Reg] = []
        self.top_controllers: List[Controller] = []
        self._scope_stack: List[Controller] = []
        self.finalized = False

    # -- construction protocol --------------------------------------------------
    def __enter__(self) -> "Design":
        _ACTIVE_DESIGNS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _ACTIVE_DESIGNS.pop()
        assert popped is self
        if exc_type is None:
            self.finalize()

    def _register(self, node: Node) -> int:
        """Record a new node in the design and in its scope's indexes."""
        nid = len(self.nodes)
        self.nodes.append(node)
        scope = node.parent
        if isinstance(node, Controller):
            if scope is None:
                self.top_controllers.append(node)
            else:
                scope.children.append(node)
                scope.stages.append(node)
        elif isinstance(node, (Value, StoreOp)):
            # Loop iterators belong to their counter chain, not the body.
            if scope is not None and not isinstance(node, CounterIter):
                scope.children.append(node)
                scope.body_prims.append(node)
        elif isinstance(node, OnChipMemory):
            if scope is None:
                self.top_mems.append(node)
            else:
                scope.local_mems.append(node)
        return nid

    def _current_scope(self) -> Optional[Controller]:
        return self._scope_stack[-1] if self._scope_stack else None

    def _push_scope(self, ctrl: Controller) -> None:
        self._scope_stack.append(ctrl)

    def _pop_scope(self, ctrl: Controller) -> None:
        if not self._scope_stack or self._scope_stack[-1] is not ctrl:
            raise IRError(f"scope mismatch popping {ctrl.name!r}")
        self._scope_stack.pop()

    # -- node factories -----------------------------------------------------------
    def as_value(self, x: object, like: Optional[HWType] = None) -> Value:
        """Coerce a Python constant to a :class:`Const` node (or pass through)."""
        if isinstance(x, Value):
            return x
        if isinstance(x, bool):
            return Const(self, x, Bool)
        if isinstance(x, int):
            tp = like if like is not None and not like.is_bit else Index
            return Const(self, x, tp)
        if isinstance(x, float):
            # A literal in a fixed-point context becomes a fixed-point
            # constant of the same format (DHDL requires explicit
            # conversions only between *computed* values).
            if like is not None and not like.is_bit:
                tp = like
            else:
                tp = FltPt(24, 8)
            return Const(self, x, tp)
        raise IRError(f"cannot convert {x!r} to a DHDL value")

    def add_prim(self, op: str, inputs: Sequence[Value], tp: HWType) -> Prim:
        """Create a primitive node in the current scope."""
        for v in inputs:
            if v.design is not self:
                raise IRError(f"input {v!r} belongs to a different design")
        return Prim(self, op, inputs, tp)

    def add_binop(self, op: str, a: Value, b: Value) -> Prim:
        """Create a binary primitive, deriving its result type."""
        tp = result_type(op, a.tp, b.tp)
        return self.add_prim(op, [a, b], tp)

    def add_unop(self, op: str, a: Value) -> Prim:
        """Create a unary primitive, deriving its result type."""
        tp = Bool if op == "not" else a.tp
        return self.add_prim(op, [a], tp)

    def add_load(self, mem: OnChipMemory, indices: Sequence[object]) -> LoadOp:
        """Create an on-chip load with coerced index expressions."""
        idx = [self.as_value(i, like=Index) for i in indices]
        _check_index_count(mem, idx)
        return LoadOp(self, mem, idx)

    def add_store(
        self, mem: OnChipMemory, indices: Sequence[object], value: object
    ) -> StoreOp:
        """Create an on-chip store with type checking against the memory."""
        idx = [self.as_value(i, like=Index) for i in indices]
        _check_index_count(mem, idx)
        val = self.as_value(value, like=mem.tp)
        result_type("add", val.tp, mem.tp)  # raises on family mismatch
        return StoreOp(self, mem, idx, val)

    # -- finalization ---------------------------------------------------------------
    @property
    def root(self) -> Controller:
        if len(self.top_controllers) != 1:
            raise IRError(
                f"design {self.name!r} must have exactly one top-level "
                f"controller, found {len(self.top_controllers)}"
            )
        return self.top_controllers[0]

    def finalize(self) -> "Design":
        """Derive vector widths, banking, and double buffering; validate."""
        if self._scope_stack:
            raise IRError("finalize called with open controller scopes")
        self._assign_widths()
        self._infer_banking()
        self._infer_double_buffering()
        self._validate()
        self.finalized = True
        return self

    def _assign_widths(self) -> None:
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe):
                width = ctrl.par
                for node in ctrl.body_prims:
                    node.width = width
                if ctrl.cchain is not None:
                    for it in ctrl.cchain.iters:
                        it.width = width

    def _infer_banking(self) -> None:
        for mem in self.onchip_mems():
            widths = [a.width for a in mem.readers + mem.writers]
            widths += [t.par for t in mem.transfers]
            mem.banks = max(widths, default=1)

    def _infer_double_buffering(self) -> None:
        for ctrl in self.controllers():
            if not isinstance(ctrl, MetaPipe):
                continue
            stages = ctrl.stages
            stage_index = {id(s): i for i, s in enumerate(stages)}
            for mem in ctrl.local_mems:
                writes = _accessor_stages(mem, stage_index, writers=True)
                reads = _accessor_stages(mem, stage_index, writers=False)
                if writes and reads and min(writes) < max(reads):
                    mem.double_buffered = True
            if ctrl.accum is not None:
                ctrl.accum[1].double_buffered = True
            if isinstance(ctrl.result, OnChipMemory):
                ctrl.result.double_buffered = True

    def _validate(self) -> None:
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe) and ctrl.stages:
                child = ctrl.stages[0]
                raise IRError(
                    f"Pipe {ctrl.name!r} may contain only primitive "
                    f"nodes, found {child.kind} {child.name!r}"
                )
            if isinstance(ctrl, Parallel) and not ctrl.stages:
                raise IRError(f"Parallel {ctrl.name!r} has no children")
            if isinstance(ctrl, (MetaPipe, Sequential)) and not ctrl.children:
                raise IRError(f"{ctrl.kind} {ctrl.name!r} is empty")
            if ctrl.accum is not None:
                op, target = ctrl.accum
                if ctrl.result is None:
                    raise IRError(
                        f"{ctrl.name!r} accumulates into {target.name!r} but "
                        "declares no result"
                    )
        for node in self.nodes:
            if isinstance(node, (LoadOp, StoreOp)):
                self._check_mem_scope(node)

    def _check_mem_scope(self, access: Union[LoadOp, StoreOp]) -> None:
        mem = access.mem
        if mem in self.top_mems:
            return
        enclosing = access.ancestors()
        owner = mem.parent
        if owner is None or owner in enclosing:
            return
        raise IRError(
            f"{access.kind} {access.name!r} accesses memory {mem.name!r} "
            "declared outside its enclosing scopes"
        )

    # -- traversal -------------------------------------------------------------------
    def controllers(self) -> Iterator[Controller]:
        """All controllers, pre-order from the top."""
        stack = self.top_controllers[::-1]
        while stack:
            ctrl = stack.pop()
            yield ctrl
            stack += ctrl.stages[::-1]

    def pipes(self) -> Iterator[Pipe]:
        """All Pipe controllers, pre-order."""
        for ctrl in self.controllers():
            if isinstance(ctrl, Pipe):
                yield ctrl

    def tile_transfers(self) -> Iterator[TileTransfer]:
        """All TileLd/TileSt command generators, pre-order."""
        for ctrl in self.controllers():
            if isinstance(ctrl, TileTransfer):
                yield ctrl

    def onchip_mems(self) -> Iterator[OnChipMemory]:
        """Every on-chip buffer: top-level first, then per controller scope."""
        seen = set()
        for mem in self.top_mems:
            seen.add(id(mem))
            yield mem
        for ctrl in self.controllers():
            for mem in ctrl.local_mems:
                if id(mem) not in seen:
                    seen.add(id(mem))
                    yield mem

    # -- summary metrics ----------------------------------------------------------------
    def total_bram_words(self) -> int:
        """Total on-chip buffer capacity in words (double buffers count twice)."""
        return sum(
            mem.size * (2 if mem.double_buffered else 1)
            for mem in self.onchip_mems()
        )

    def count_nodes(self, kind: type) -> int:
        """Number of nodes of one class in the design."""
        return sum(1 for n in self.nodes if isinstance(n, kind))

    def stats(self) -> Dict[str, int]:
        """Summary node/controller/memory counts."""
        return {
            "nodes": len(self.nodes),
            "prims": self.count_nodes(Prim),
            "loads": self.count_nodes(LoadOp),
            "stores": self.count_nodes(StoreOp),
            "controllers": sum(1 for _ in self.controllers()),
            "pipes": sum(1 for _ in self.pipes()),
            "metapipes": sum(
                1 for c in self.controllers() if isinstance(c, MetaPipe)
            ),
            "onchip_mems": sum(1 for _ in self.onchip_mems()),
            "offchip_mems": len(self.offchip_mems),
            "tile_transfers": sum(1 for _ in self.tile_transfers()),
        }


def replication(node: Node) -> int:
    """How many hardware copies of ``node`` exist due to outer-loop
    parallelization.

    A parallelized MetaPipe/Sequential replicates its entire body (paper
    Figure 3: ``M1Par``, ``M2Par``); Pipe parallelization is instead
    expressed as vector width on the body's primitive nodes, so Pipe
    factors are excluded here.
    """
    parent = node.parent
    return parent.body_replication if parent is not None else 1


def _check_index_count(mem: OnChipMemory, indices: Sequence[Value]) -> None:
    expected = len(getattr(mem, "dims", ())) if isinstance(mem, BRAM) else 0
    if isinstance(mem, BRAM) and len(indices) != expected:
        raise IRError(
            f"memory {mem.name!r} is {expected}-dimensional but was accessed "
            f"with {len(indices)} indices"
        )


def _accessor_stages(
    mem: OnChipMemory,
    stage_index: Dict[int, int],
    writers: bool,
) -> List[int]:
    """MetaPipe stage indices at which ``mem`` is written (or read).

    TileLd counts as a writer of its BRAM; TileSt as a reader.
    """
    stages: List[int] = []
    accessors: List[Node] = list(mem.writers if writers else mem.readers)
    transfer_kind = TileLd if writers else TileSt
    accessors += [t for t in mem.transfers if isinstance(t, transfer_kind)]
    for acc in accessors:
        node: Optional[Node] = acc
        while node is not None:
            stage = stage_index.get(id(node))
            if stage is not None:
                stages.append(stage)
                break
            node = node.parent
    return stages

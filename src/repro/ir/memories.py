"""Memory nodes: off-chip arrays and on-chip buffers (paper Table I).

DHDL distinguishes off-chip memory regions (``OffChipMem``, accessed at tile
granularity through memory command generators) from on-chip buffers
(``BRAM``, ``Reg``, ``PriorityQueue``, accessed by primitive loads/stores).

Banking factors and double-buffering are *derived* properties: banking is
computed from the vector widths of all accessors so on-chip bandwidth
matches the parallelization, and buffers written in one MetaPipe stage and
read in a later stage are double-buffered. Both are filled in by design
finalization (:mod:`repro.ir.graph`). The design records every on-chip
buffer in its declaring scope's ``local_mems`` (or ``top_mems``) as the
buffer is created.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .node import IRError, Node, Value
from .types import HWType

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Design
    from .memops import TileTransfer
    from .primitives import LoadOp, StoreOp


class OffChipMem(Node):
    """An N-dimensional array in off-chip DRAM."""

    def __init__(
        self, design: "Design", name: str, tp: HWType, dims: Sequence[int]
    ) -> None:
        super().__init__(design, name)
        if not dims or any(d <= 0 for d in dims):
            raise IRError(f"OffChipMem {name!r} needs positive dimensions")
        self.tp = tp
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        design.offchip_mems.append(self)

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def bytes(self) -> int:
        return self.size * self.tp.bits // 8


class OnChipMemory(Node):
    """Common base for on-chip buffers."""

    def __init__(self, design: "Design", name: str, tp: HWType) -> None:
        super().__init__(design, name)
        self.tp = tp
        self.readers: List["LoadOp"] = []
        self.writers: List["StoreOp"] = []
        # TileLd/TileSt commands moving tiles into/out of this buffer, in
        # program order (recorded by the transfer at construction).
        self.transfers: List["TileTransfer"] = []
        # Derived during finalization:
        self.double_buffered = False
        self.banks = 1

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def total_bits(self) -> int:
        depth = self.size * (2 if self.double_buffered else 1)
        return depth * self.tp.bits


class BRAM(OnChipMemory):
    """An on-chip scratchpad backed by block RAMs.

    Parameters from Table I: dimensions, word width, double buffering,
    vector width, banks, interleaving scheme. Banks and double-buffering
    are inferred; the interleaving scheme is cyclic by default (matching
    parallel access along the innermost dimension).
    """

    def __init__(
        self,
        design: "Design",
        name: str,
        tp: HWType,
        dims: Sequence[int],
        interleave: str = "cyclic",
    ) -> None:
        super().__init__(design, name, tp)
        if not dims or any(d <= 0 for d in dims):
            raise IRError(f"BRAM {name!r} needs positive dimensions")
        if interleave not in ("cyclic", "block"):
            raise IRError(f"unknown interleaving scheme {interleave!r}")
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        self.interleave = interleave

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    def __getitem__(self, indices: object) -> "LoadOp":
        return self.design.add_load(self, _as_index_tuple(indices))

    def __setitem__(self, indices: object, value: object) -> None:
        self.design.add_store(self, _as_index_tuple(indices), value)


class Reg(OnChipMemory):
    """A non-pipelined register (optionally double buffered)."""

    @property
    def size(self) -> int:
        return 1

    def read(self) -> "LoadOp":
        """Create a load of the register's current value."""
        return self.design.add_load(self, ())

    def write(self, value: object) -> None:
        """Create a store of ``value`` into the register."""
        self.design.add_store(self, (), value)


class ArgOut(Reg):
    """A scalar result register visible to the host after execution."""

    def __init__(self, design: "Design", name: str, tp: HWType) -> None:
        super().__init__(design, name, tp)
        design.arg_outs.append(self)


class PriorityQueue(OnChipMemory):
    """A hardware sorting queue (paper Table I).

    Maintains its ``depth`` smallest (or largest) elements; used for
    top-k style kernels. Modeled as a shift-register insertion sorter.
    """

    def __init__(
        self,
        design: "Design",
        name: str,
        tp: HWType,
        depth: int,
        ascending: bool = True,
    ) -> None:
        super().__init__(design, name, tp)
        if depth <= 0:
            raise IRError("priority queue depth must be positive")
        self.depth = depth
        self.ascending = ascending

    @property
    def size(self) -> int:
        return self.depth

    def enqueue(self, value: object) -> None:
        """Insert ``value``; the queue keeps its best ``depth`` entries sorted."""
        self.design.add_store(self, (), value)

    def peek(self, position: object) -> "LoadOp":
        """Read the entry at sorted ``position`` (0 is the best)."""
        return self.design.add_load(self, _as_index_tuple(position))


def _as_index_tuple(indices: object) -> Tuple[object, ...]:
    if isinstance(indices, tuple):
        return indices
    return (indices,)

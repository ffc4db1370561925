"""Memory command generators: TileLd and TileSt (paper Section III-B4).

Off-chip memories are accessed at the granularity of tiles — regular
N-dimensional regions. Each TileLd/TileSt instantiates data and command
queues interfacing with the memory controller plus control logic generating
memory commands; the parallelization factor sets the number of words moved
per fabric cycle (bounded by the DRAM interface width).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence, Tuple, Union

from .controllers import Controller
from .memories import BRAM, OffChipMem
from .node import IRError, Value, untag

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Design

Start = Union[int, Value]


def check_tile(
    name: str, offchip: OffChipMem, bram: BRAM, sizes: Sequence[int]
) -> None:
    """Each tile size must lie in its dimension and the tile fit its BRAM."""
    for size, dim in zip(sizes, offchip.dims):
        if size <= 0 or size > dim:
            raise IRError(
                f"{name}: tile size {size} out of range for dimension {dim}"
            )
    if math.prod(sizes) > bram.size:
        raise IRError(
            f"{name}: tile of {math.prod(sizes)} words does not fit in "
            f"BRAM {bram.name!r} ({bram.size} words)"
        )


class TileTransfer(Controller):
    """Common base for tile load/store command generators."""

    is_load: bool

    def __init__(
        self,
        design: "Design",
        name: str,
        offchip: OffChipMem,
        bram: BRAM,
        starts: Sequence[Start],
        sizes: Sequence[int],
        par: int = 1,
    ) -> None:
        super().__init__(design, name, cchain=None, par=par)
        if len(starts) != len(offchip.dims):
            raise IRError(
                f"{name}: got {len(starts)} start offsets for "
                f"{len(offchip.dims)}-D off-chip memory {offchip.name!r}"
            )
        if len(sizes) != len(offchip.dims):
            raise IRError(
                f"{name}: got {len(sizes)} tile sizes for "
                f"{len(offchip.dims)}-D off-chip memory {offchip.name!r}"
            )
        plain = []
        for i, size in enumerate(sizes):
            size, tag = untag(size)
            design._slot(tag, self, "sizes", i)
            plain.append(int(size))
        check_tile(name, offchip, bram, plain)
        if offchip.tp != bram.tp:
            raise IRError(
                f"{name}: element type mismatch between {offchip.name!r} "
                f"and {bram.name!r}"
            )
        self.offchip = offchip
        self.bram = bram
        self.starts: List[Start] = []
        for i, start in enumerate(starts):
            start, tag = untag(start)
            design._slot(tag, self, "starts", i)
            self.starts.append(start)
        self.sizes: Tuple[int, ...] = tuple(plain)
        bram.transfers.append(self)

    @property
    def words(self) -> int:
        """Number of words moved per execution."""
        return math.prod(self.sizes)

    @property
    def bytes(self) -> int:
        return self.words * self.offchip.tp.bits // 8

    @property
    def num_commands(self) -> int:
        """Number of distinct DRAM commands (one per contiguous row)."""
        if len(self.sizes) == 1:
            return 1
        return math.prod(self.sizes[:-1])

    @property
    def contiguous_words(self) -> int:
        """Words per contiguous burst (innermost tile dimension)."""
        return self.sizes[-1]


class TileLd(TileTransfer):
    """Load a tile of data from an off-chip array into a BRAM."""

    is_load = True


class TileSt(TileTransfer):
    """Store a tile of data from a BRAM to an off-chip array."""

    is_load = False

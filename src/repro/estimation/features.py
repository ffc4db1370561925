"""Design-level feature vector for the neural-network correction models.

Eleven inputs per network (paper Section IV-B2): the raw resource counts
from the template-model pass plus structural properties of the design that
correlate with routing pressure and placement fragmentation. Features are
computed from the *estimator's* raw counts — the same information available
at design-space-exploration time — never from ground-truth synthesis.
"""

from __future__ import annotations

import math
from typing import List

from ..ir.controllers import MetaPipe
from ..ir.graph import Design
from ..ir.memops import TileTransfer
from .counts import Counts

N_FEATURES = 11


def design_features(design: Design, raw: Counts, wire_bits: float) -> List[float]:
    """The 11-element feature vector for one design instance."""
    controllers = list(design.controllers())
    num_metapipes = sum(1 for c in controllers if isinstance(c, MetaPipe))
    num_transfers = sum(1 for c in controllers if isinstance(c, TileTransfer))
    banks = [m.banks for m in design.onchip_mems()] or [1]
    depth = _max_depth(design)

    return [
        math.log10(1.0 + raw.luts_packable),
        math.log10(1.0 + raw.luts_unpackable),
        math.log10(1.0 + raw.regs),
        math.log10(1.0 + raw.dsps),
        math.log10(1.0 + raw.brams),
        math.log10(1.0 + wire_bits),
        float(len(controllers)),
        float(num_metapipes),
        float(num_transfers),
        float(depth),
        math.log2(1.0 + sum(banks)),
    ]


def _max_depth(design: Design) -> int:
    best = 1

    def walk(ctrl, depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        for child in ctrl.stages:
            walk(child, depth + 1)

    for top in design.top_controllers:
        walk(top, 1)
    return best

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
    return FeaturePlan(design).replay(raw, wire_bits)


class FeaturePlan:
    """The feature vector of one design, compiled once per structure.

    Controller, MetaPipe and transfer counts and the nesting depth are
    structural, so they are fixed at compile time; the total bank count
    is read from the design's memories at every replay.
    """

    def __init__(self, design: Design) -> None:
        controllers = list(design.controllers())
        self.structure = [
            float(len(controllers)),
            float(sum(1 for c in controllers if isinstance(c, MetaPipe))),
            float(sum(1 for c in controllers if isinstance(c, TileTransfer))),
            float(_max_depth(design)),
        ]
        self._mems = list(design.onchip_mems())

    def replay(self, raw: Counts, wire_bits: float) -> List[float]:
        """The features of the bound point from its raw counts."""
        banks = sum(m.banks for m in self._mems) if self._mems else 1
        return [
            math.log10(1.0 + raw.luts_packable),
            math.log10(1.0 + raw.luts_unpackable),
            math.log10(1.0 + raw.regs),
            math.log10(1.0 + raw.dsps),
            math.log10(1.0 + raw.brams),
            math.log10(1.0 + wire_bits),
            *self.structure,
            math.log2(1.0 + banks),
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

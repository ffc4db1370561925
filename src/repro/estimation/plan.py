"""Estimation plans: compile a design class once, price each point by replay.

The estimator's analytical half (paper Section IV-B) is a template-based
pass over a DHDL instance. A DSE sweep prices thousands of points of the
same few structural classes, and a skeleton (:mod:`repro.ir.skeleton`)
re-binds each class's integers in place, so what the pass decides from
structure alone never changes between points of a class.

:func:`compile_plan` walks a design once and keeps only what a point can
change. Its :class:`Plan` holds

* the raw-area terms in accumulation order
  (:class:`~repro.estimation.area.AreaPlan`): template keys, the bound
  fields their sorted parameter tuples read, replication scopes,
  FMA/tree discounts, BRAM block overrides, delay-balancing edges with
  their ASAP slack, and the wire-bit terms;
* the controller tree's cycle program
  (:class:`~repro.estimation.cycles.CyclePlan`) with Pipe latencies
  precomputed;
* the structural feature constants
  (:class:`~repro.estimation.features.FeaturePlan`).

:meth:`Plan.analyze` replays all three against the currently bound
integers and returns the same :class:`Analysis`, bit for bit, as
:func:`~repro.estimation.cycles.estimate_cycles` plus
:func:`~repro.estimation.area.raw_analysis` on a fresh build of the
point; those one-shot functions are themselves compile-and-replay-once.
Template predictions are memoized only by the estimator's template LRU,
whose keys are the plan's parameter tuples.
"""

from __future__ import annotations

from typing import List, NamedTuple

from .. import obs
from ..ir.graph import Design
from ..target.board import MAIA, Board
from .area import AreaPlan, RawArea
from .characterize import TemplateModels
from .cycles import CycleEstimate, CyclePlan
from .features import FeaturePlan


class Analysis(NamedTuple):
    """The per-design half of a batched estimate: everything but the NN.

    Holds no reference to the design, so the design may change (a DSE
    skeleton is re-bound to the next point) once it is analysed.
    """

    design_name: str
    cycles: CycleEstimate
    raw: RawArea
    features: List[float]


class Plan:
    """A design's compiled estimation pass; see the module docstring."""

    def __init__(
        self,
        design: Design,
        area: AreaPlan,
        cycles: CyclePlan,
        features: FeaturePlan,
    ) -> None:
        self.design = design
        self.area = area
        self.cycles = cycles
        self.features = features

    def analyze(self) -> Analysis:
        """Cycles, raw area and NN features of the design's bound point.

        Emits the same ``cycles`` and ``area.raw`` spans and
        ``pass.cycles_s`` / ``pass.area_raw_s`` observations as the
        one-shot passes. The cycle estimate carries no per-controller
        breakdown.
        """
        name = self.design.name
        with obs.timed("cycles", "pass.cycles_s", design=name) as sp:
            cycles = CycleEstimate(self.cycles.total(), self.cycles.board)
            sp.set(cycles=cycles.total)
        with obs.timed("area.raw", "pass.area_raw_s", design=name):
            raw = self.area.replay()
            features = self.features.replay(raw.counts, raw.wire_bits)
        return Analysis(name, cycles, raw, features)


def compile_plan(
    design: Design,
    templates: TemplateModels,
    board: Board = MAIA,
    caches=None,
) -> Plan:
    """Compile ``design``'s estimation plan for ``board``.

    ``caches`` is an optional
    :class:`~repro.estimation.cache.EstimationCaches`: the plan then
    predicts through its template LRU, and compiling takes Pipe
    schedules from its schedule cache.
    """
    return Plan(
        design,
        AreaPlan(design, templates, caches),
        CyclePlan(design, board, caches),
        FeaturePlan(design),
    )

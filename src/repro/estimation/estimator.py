"""Estimator facade: one object answering "how big / how fast is this design".

Bundles the characterized template models, the trained correction models,
and the board description. Characterization and training happen once per
process (or can be loaded from a saved model file) and are shared across
all design estimates — exactly the paper's amortization argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import obs
from ..ir.graph import Design
from ..target.board import MAIA, Board
from .area import AreaEstimate, hybrid_area, hybrid_area_many
from .cache import EstimationCaches
from .characterize import TemplateModels, characterize_templates
from .cycles import CycleEstimate, estimate_cycles
from .train import CorrectionModels, train_corrections


@dataclass
class Estimate:
    """A complete design-point estimate: runtime and area."""

    design_name: str
    cycles: float
    seconds: float
    area: AreaEstimate
    board: Board

    @property
    def alms(self) -> int:
        return self.area.alms

    @property
    def dsps(self) -> int:
        return self.area.dsps

    @property
    def brams(self) -> int:
        return self.area.brams

    def fits(self) -> bool:
        """Whether the estimated design fits on the board's device."""
        return self.area.fits(self.board.device)

    def utilization(self) -> Dict[str, float]:
        """Estimated utilization fraction per device resource class."""
        return self.area.utilization(self.board.device)


class Estimator:
    """Fast design analysis: cycle counts plus hybrid area estimation.

    With ``cache=True`` (the default) the estimator owns an
    :class:`~repro.estimation.cache.EstimationCaches` bundle that
    memoizes template predictions, Pipe schedules, and whole design
    points across estimates. Cached results are bit-identical to the
    cold path; pass ``cache=False`` (the ``--no-cache`` CLI flag) to
    estimate from scratch every time. Cache statistics reach the
    ``estimation.cache.*`` obs counters at the end of every estimating
    method call, not per lookup.
    """

    def __init__(
        self,
        board: Board = MAIA,
        templates: Optional[TemplateModels] = None,
        corrections: Optional[CorrectionModels] = None,
        training_samples: int = 200,
        seed: int = 7,
        cache: bool = True,
    ) -> None:
        self.board = board
        self.caches: Optional[EstimationCaches] = (
            EstimationCaches() if cache else None
        )
        if templates is None:
            with obs.timed(
                "estimator.characterize", "estimator.characterize_s",
                board=board.name,
            ):
                templates = characterize_templates(board.device)
        self.templates = templates
        if corrections is None:
            with obs.timed(
                "estimator.train", "estimator.train_s",
                board=board.name, samples=training_samples,
            ):
                corrections = train_corrections(
                    self.templates, board,
                    n_samples=training_samples, seed=seed,
                )
        self.corrections = corrections

    def estimate_cycles(self, design: Design) -> CycleEstimate:
        """Runtime estimate only (paper Section IV-B1)."""
        cycles = estimate_cycles(design, self.board, self.caches)
        self._publish_cache_stats()
        return cycles

    def estimate_area(self, design: Design) -> AreaEstimate:
        """Hybrid area estimate only (paper Section IV-B2)."""
        area = hybrid_area(
            design, self.templates, self.corrections, self.board, self.caches
        )
        self._publish_cache_stats()
        return area

    def estimate(self, design: Design) -> Estimate:
        """Complete design-point estimate: cycles plus area."""
        with obs.timed("estimate", "estimate.latency_s", design=design.name):
            obs.counter("estimate.calls").inc()
            cycles = estimate_cycles(design, self.board, self.caches)
            area = hybrid_area(
                design, self.templates, self.corrections, self.board,
                self.caches,
            )
        self._publish_cache_stats()
        return Estimate(
            design_name=design.name,
            cycles=cycles.total,
            seconds=cycles.seconds,
            area=area,
            board=self.board,
        )

    def estimate_many(self, designs: Sequence[Design]) -> List[Estimate]:
        """Batched estimates: per-design cycles, one vectorized NN pass.

        Raw counting and cycle analysis run per design (reusing this
        estimator's caches), while the four correction networks evaluate
        the whole block in a single forward pass each. Every returned
        :class:`Estimate` is bit-identical to calling :meth:`estimate`
        on that design alone.
        """
        if not designs:
            return []
        with obs.timed(
            "estimate.batch", "estimate.batch_latency_s", batch=len(designs)
        ):
            obs.counter("estimate.calls").inc(len(designs))
            cycles = [
                estimate_cycles(d, self.board, self.caches) for d in designs
            ]
            areas = hybrid_area_many(
                list(designs), self.templates, self.corrections,
                self.board, self.caches,
            )
        self._publish_cache_stats()
        return [
            Estimate(
                design_name=design.name,
                cycles=cyc.total,
                seconds=cyc.seconds,
                area=area,
                board=self.board,
            )
            for design, cyc, area in zip(designs, cycles, areas)
        ]

    def _publish_cache_stats(self) -> None:
        """Publish cache statistics into obs (once per estimating call)."""
        if self.caches is not None:
            self.caches.publish()


@functools.lru_cache(maxsize=4)
def _build_default_estimator(board: Board, seed: int) -> Estimator:
    """The cached constructor behind :func:`default_estimator`."""
    return Estimator(board, seed=seed)


def default_estimator(
    board: Board = MAIA, seed: int = 7, cache: bool = True
) -> Estimator:
    """Process-wide shared estimator (characterize + train once).

    Counts ``estimator.cache.{hit,miss}`` so the cold-start cost
    (characterization + NN training, visible as ``estimator.characterize``
    / ``estimator.train`` spans) can be separated from steady-state CLI
    latency — and so per-worker warm-up shows up in parallel-DSE benches.

    ``cache=False`` (the CLI ``--no-cache`` flag) returns an estimator
    sharing the same trained models but with estimation caching disabled
    — no recharacterization, just the cold per-point hot path.
    """
    misses_before = _build_default_estimator.cache_info().misses
    estimator = _build_default_estimator(board, seed)
    if _build_default_estimator.cache_info().misses > misses_before:
        obs.counter("estimator.cache.miss").inc()
    else:
        obs.counter("estimator.cache.hit").inc()
    if not cache:
        return Estimator(
            board,
            templates=estimator.templates,
            corrections=estimator.corrections,
            cache=False,
        )
    return estimator


# Cache management passthroughs: callers treat default_estimator as if it
# were the lru_cache-decorated function itself.
default_estimator.cache_info = _build_default_estimator.cache_info
default_estimator.cache_clear = _build_default_estimator.cache_clear

"""Simulation substrate: cycle-level runtime ground truth + functional execution."""

from .dram import TransferTiming, interleave_efficiency, simulate_transfer
from .executor import SimResult, simulate
from .functional import FunctionalSim, quantize_fixed

__all__ = [
    "FunctionalSim",
    "quantize_fixed",
    "SimResult",
    "TransferTiming",
    "interleave_efficiency",
    "simulate",
    "simulate_transfer",
]

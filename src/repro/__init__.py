"""repro — reproduction of "Automatic Generation of Efficient Accelerators
for Reconfigurable Hardware" (Koeplinger et al., ISCA 2016).

The package implements the paper's full flow (Figure 1):

1. Parallel patterns (:mod:`repro.patterns`) lower to the DHDL IR
   (:mod:`repro.ir`) with fusion and tiling.
2. Fast estimation (:mod:`repro.estimation`) predicts cycle counts and
   FPGA area using characterized template models plus neural-network
   corrections for place-and-route effects.
3. Design space exploration (:mod:`repro.dse`) samples the pruned space of
   tile sizes, parallelization factors, and MetaPipe toggles and extracts
   Pareto-optimal designs.
4. Code generation (:mod:`repro.codegen`) emits MaxJ for chosen designs,
   the paper's only backend. :mod:`repro.hls` models Vivado HLS from the
   IR for Table IV; no HLS-C text is generated.

Ground truth comes from two simulation substrates standing in for the
paper's proprietary toolchain and board: a synthesis/place-and-route
simulator (:mod:`repro.synth`) and a cycle-level runtime simulator
(:mod:`repro.sim`). The seven Table II benchmarks, and no others, live in
:mod:`repro.apps`; CPU baselines in :mod:`repro.cpu`. See DESIGN.md for the
substitution rationale and EXPERIMENTS.md for paper-vs-measured results.
"""

from . import apps, codegen, cpu, dse, estimation, hls, ir, patterns, sim, synth, target
from .estimation import Estimator, default_estimator
from .dse import explore
from .ir import Design
from .sim import FunctionalSim, simulate
from .synth import synthesize

__version__ = "1.0.0"

__all__ = [
    "Design",
    "Estimator",
    "FunctionalSim",
    "__version__",
    "apps",
    "codegen",
    "cpu",
    "default_estimator",
    "dse",
    "estimation",
    "explore",
    "hls",
    "ir",
    "patterns",
    "sim",
    "simulate",
    "synth",
    "synthesize",
    "target",
]

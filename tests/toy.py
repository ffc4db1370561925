"""A toy app that reaches the IR the seven Table II apps do not.

The paper's benchmarks never use the priority queue (``hw.pqueue``), nor
``hw.floor`` and ``hw.minimum`` feeding a data-dependent BRAM write (the
scatter-accumulate that groupBy lowers to). The toy uses all three, every
kind of skeleton parameter slot, and one structural branch on ``tile``, so
the skeleton, index and golden-digest tests keep that IR covered.

:class:`Toy` has the part of the :class:`~repro.apps.registry.Benchmark`
interface those tests and :func:`repro.dse.explore` call: a name,
datasets, a parameter space, default parameters and ``build``.
"""

from __future__ import annotations

from repro.ir import Design, Float32
from repro.ir import builder as hw
from repro.params import ParamSpace

#: Buckets of the scatter-accumulate table.
BINS = 64


def toy_design(tile, par, outer, depth, wide, n=1024):
    """A builder using every kind of slot, and branching on ``tile``."""
    with Design("toy") as design:
        x = hw.offchip("x", Float32, n)
        out = hw.offchip("out", Float32, n)
        best = hw.offchip("best", Float32, 64)
        counts = hw.offchip("counts", Float32, BINS)
        with hw.sequential("top"):
            queue = hw.pqueue("queue", Float32, depth)
            hist = hw.bram("hist", Float32, BINS)
            with hw.loop(
                "tiles", [(n, tile)], metapipe_=wide, par=outer
            ) as loop:
                (i,) = loop.iters
                buf = hw.bram("buf", Float32, tile)
                hw.tile_load(x, buf, (i,), (tile,), par=par)
                with hw.pipe("scale", [(tile, 1)], par=par) as scale:
                    (j,) = scale.iters
                    buf[j] = buf[j] * depth  # a constant slot
                with hw.pipe("bin", [(tile, 1)]) as binning:
                    (b,) = binning.iters
                    bucket = hw.floor(hw.minimum(buf[b], BINS - 1.0))
                    hist[bucket] = hist[bucket] + 1.0
                if tile > 64:  # a structural use of tile
                    with hw.pipe("push", [(tile, 1)]) as push:
                        (k,) = push.iters
                        queue.enqueue(buf[k])
                hw.tile_store(out, buf, (i,), (tile,), par=par)
            bestT = hw.bram("bestT", Float32, depth)
            with hw.pipe("drain", [(depth, 1)]) as drain:
                (d,) = drain.iters
                bestT[d] = queue.peek(d)
            hw.tile_store(best, bestT, (0,), (depth,))
            hw.tile_store(counts, hist, (0,), (BINS,))
    return design


class Toy:
    """:func:`toy_design` as a sweepable app."""

    name = "toy"

    def default_dataset(self):
        return {"n": 1024}

    def small_dataset(self):
        return {"n": 256}

    def param_space(self, dataset):
        space = ParamSpace()
        space.int_param("tile", [32, 64, 128])
        space.int_param("par", [1, 2, 4])
        space.int_param("outer", [1, 2, 4])
        space.int_param("depth", [4, 8, 16])
        space.bool_param("wide")
        return space

    def default_params(self, dataset):
        return {"tile": 128, "par": 2, "outer": 2, "depth": 8, "wide": True}

    def build(self, dataset, **params):
        return toy_design(n=dataset["n"], **params)

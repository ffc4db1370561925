"""Embedded DSL for writing DHDL programs (the paper's Figure 4 style).

Benchmarks construct designs inside a ``with Design(...)`` block using the
functions here, e.g.::

    with Design("gda") as d:
        x = offchip("x", Float32, R, C)
        with sequential("top"):
            mu0T = bram("mu0T", Float32, C)
            with parallel():
                tile_load(mu0, mu0T, (0,), (C,))
            with loop("m1", [(R, tile_r)], metapipe=True, par=2) as m1:
                r, = m1.iters
                ...

All functions operate on the innermost active design
(:func:`repro.ir.graph.current_design`), so the same builder code can be
called with different concrete parameter values to instantiate different
design points — the paper's metaprogramming model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from . import controllers as ctl
from . import memories as mem
from . import memops as mop
from .graph import Design, current_design
from .node import IRError, Value
from .primitives import make_mux
from .types import HWType

DimSpec = Union[int, Tuple[int, int]]

def _fresh(prefix: str) -> str:
    """A design-local fresh name, deterministic across identical builds."""
    return f"{prefix}{len(current_design().nodes)}"


def _norm_dims(dims: Sequence[DimSpec]) -> List[Tuple[int, int]]:
    # Values pass through unconverted: the counter chain strips parameter
    # tags itself (see repro.ir.node.ParamInt).
    return [(d[0], d[1]) if isinstance(d, tuple) else (d, 1) for d in dims]


# -- memories ---------------------------------------------------------------------


def offchip(name: str, tp: HWType, *dims: int) -> mem.OffChipMem:
    """Declare an N-dimensional off-chip DRAM array."""
    return mem.OffChipMem(current_design(), name, tp, dims)


def bram(name: str, tp: HWType, *dims: int) -> mem.BRAM:
    """Declare an on-chip scratchpad buffer."""
    return mem.BRAM(current_design(), name, tp, dims)


def reg(name: str, tp: HWType) -> mem.Reg:
    """Declare an on-chip register."""
    return mem.Reg(current_design(), name, tp)


def arg_out(name: str, tp: HWType) -> mem.ArgOut:
    """Declare a scalar result register readable by the host."""
    return mem.ArgOut(current_design(), name, tp)


def pqueue(name: str, tp: HWType, depth: int, ascending: bool = True) -> mem.PriorityQueue:
    """Declare a hardware sorting (priority) queue."""
    return mem.PriorityQueue(current_design(), name, tp, depth, ascending)


# -- controllers ------------------------------------------------------------------


def _counter(dims: Optional[Sequence[DimSpec]]) -> Optional[ctl.CounterChain]:
    if dims is None:
        return None
    return ctl.CounterChain(current_design(), _norm_dims(dims))


def pipe(
    name: Optional[str] = None,
    dims: Optional[Sequence[DimSpec]] = None,
    par: int = 1,
    pattern: str = "map",
    accum: Optional[Tuple[str, mem.OnChipMemory]] = None,
) -> ctl.Pipe:
    """A fine-grained pipeline over primitive operations (innermost loop)."""
    d = current_design()
    p = ctl.Pipe(d, name or _fresh("pipe"), _counter(dims), par, pattern)
    if accum is not None:
        p.accum = accum
        p.pattern = "reduce"
    return p


def metapipe(
    name: Optional[str] = None,
    dims: Optional[Sequence[DimSpec]] = None,
    par: int = 1,
    pattern: str = "map",
    accum: Optional[Tuple[str, mem.OnChipMemory]] = None,
) -> ctl.MetaPipe:
    """A coarse-grained pipeline whose stages are nested controllers."""
    d = current_design()
    p = ctl.MetaPipe(d, name or _fresh("mpipe"), _counter(dims), par, pattern)
    if accum is not None:
        p.accum = accum
        p.pattern = "reduce"
    return p


def sequential(
    name: Optional[str] = None,
    dims: Optional[Sequence[DimSpec]] = None,
    par: int = 1,
    accum: Optional[Tuple[str, mem.OnChipMemory]] = None,
) -> ctl.Sequential:
    """Unpipelined sequential execution (optionally a loop)."""
    d = current_design()
    p = ctl.Sequential(d, name or _fresh("seq"), _counter(dims), par)
    if accum is not None:
        p.accum = accum
        p.pattern = "reduce"
    return p


def loop(
    name: Optional[str] = None,
    dims: Optional[Sequence[DimSpec]] = None,
    metapipe_: bool = True,
    par: int = 1,
    accum: Optional[Tuple[str, mem.OnChipMemory]] = None,
) -> ctl.Controller:
    """An outer loop controller whose schedule is a design parameter.

    The MetaPipe *toggle* (paper Figure 3: ``M1toggle``, ``M2toggle``)
    selects between a coarse-grained pipeline and sequential execution of
    the same loop nest.
    """
    if metapipe_:
        return metapipe(name, dims, par, accum=accum)
    return sequential(name, dims, par, accum=accum)


def parallel(name: Optional[str] = None) -> ctl.Parallel:
    """Fork-join container with an implicit barrier."""
    return ctl.Parallel(current_design(), name or _fresh("par"))


# -- memory command generators -------------------------------------------------------


def tile_load(
    offchip_mem: mem.OffChipMem,
    bram_mem: mem.BRAM,
    starts: Sequence[Union[int, Value]],
    sizes: Sequence[int],
    par: int = 1,
    name: Optional[str] = None,
) -> mop.TileLd:
    """Load a tile ``offchip[starts : starts+sizes]`` into a BRAM."""
    return mop.TileLd(
        current_design(), name or _fresh("tld"), offchip_mem, bram_mem,
        starts, sizes, par,
    )


def tile_store(
    offchip_mem: mem.OffChipMem,
    bram_mem: mem.BRAM,
    starts: Sequence[Union[int, Value]],
    sizes: Sequence[int],
    par: int = 1,
    name: Optional[str] = None,
) -> mop.TileSt:
    """Store a BRAM tile back to ``offchip[starts : starts+sizes]``."""
    return mop.TileSt(
        current_design(), name or _fresh("tst"), offchip_mem, bram_mem,
        starts, sizes, par,
    )


# -- primitive helpers ------------------------------------------------------------------


def mux(cond: Value, if_true: object, if_false: object) -> Value:
    """2:1 multiplexer (data-dependent select)."""
    d = current_design()
    t = d.as_value(if_true)
    f = d.as_value(if_false, like=t.tp)
    return make_mux(d, cond, t, f)


def _unary(op: str, x: object) -> Value:
    d = current_design()
    v = d.as_value(x)
    return d.add_unop(op, v)


def sqrt(x: object) -> Value:
    """Square root primitive."""
    return _unary("sqrt", x)


def log(x: object) -> Value:
    """Natural logarithm primitive."""
    return _unary("log", x)


def exp(x: object) -> Value:
    """Exponential primitive."""
    return _unary("exp", x)


def abs_(x: object) -> Value:
    """Absolute value primitive."""
    return _unary("abs", x)


def floor(x: object) -> Value:
    """Floor primitive (used for data-dependent indexing)."""
    return _unary("floor", x)


def minimum(a: Value, b: object) -> Value:
    """Elementwise minimum primitive."""
    return a._binop("min", b)


def maximum(a: Value, b: object) -> Value:
    """Elementwise maximum primitive."""
    return a._binop("max", b)


def const(value: object, tp: Optional[HWType] = None) -> Value:
    """A typed constant node in the active design."""
    return current_design().as_value(value, like=tp)

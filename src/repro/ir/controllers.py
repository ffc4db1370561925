"""Controller templates: Counter, Pipe, MetaPipe, Sequential, Parallel.

Controllers capture imperfectly nested loops and parallelism at multiple
nesting levels (paper Section III-B3):

* ``Pipe`` — a dataflow pipeline of purely primitive nodes (innermost loop
  bodies, software-pipelined with II=1).
* ``MetaPipe`` — a coarse-grained pipeline whose stages are other
  controllers, orchestrated with asynchronous handshaking; inter-stage
  buffers become double buffers.
* ``Sequential`` — unpipelined execution of a chain of controllers.
* ``Parallel`` — fork-join execution with a synchronizing barrier.
* ``CounterChain`` — a chain of counters producing loop iterators, with a
  vector width equal to the parallelization factor of its controller.

Each loop controller carries a parallelization factor and the parallel
pattern (map / reduce) it was generated from, which determines how replicas
are combined: map replicas connect in parallel, reduce replicas connect as
a balanced tree.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from .node import IRError, Node, Value, untag
from .memories import OnChipMemory

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Design


class CounterIter(Value):
    """A loop iterator produced by one dimension of a counter chain."""

    def __init__(self, design: "Design", chain: "CounterChain", dim: int) -> None:
        from .types import Index

        super().__init__(design, f"i{dim}", Index)
        self.chain = chain
        self.dim = dim


class CounterChain(Node):
    """A chain of hardware counters generating loop iterators.

    ``dims`` is a list of ``(extent, step)`` pairs, outermost first. The
    innermost counter is vectorized by the owning controller's
    parallelization factor so several successive iterators are produced per
    cycle.
    """

    def __init__(
        self,
        design: "Design",
        dims: Sequence[Tuple[int, int]],
    ) -> None:
        super().__init__(design, "ctr")
        if not dims:
            raise IRError("counter chain needs at least one dimension")
        norm: List[Tuple[int, int]] = []
        for i, (extent, step) in enumerate(dims):
            (extent, extent_tag), (step, step_tag) = untag(extent), untag(step)
            design._slot(extent_tag, self, "dims", (i, 0))
            design._slot(step_tag, self, "dims", (i, 1))
            norm.append((int(extent), int(step)))
        check_counter_dims(norm)
        self.dims: List[Tuple[int, int]] = norm
        self.iters: List[CounterIter] = [
            CounterIter(design, self, i) for i in range(len(norm))
        ]
        self.par = 1  # set by owning controller

    @property
    def counts(self) -> List[int]:
        """Iteration count of each counter dimension."""
        return [-(-extent // step) for extent, step in self.dims]

    @property
    def total_iterations(self) -> int:
        return math.prod(self.counts)


def check_counter_dims(dims: Sequence[Tuple[int, int]]) -> None:
    """Every counter extent and step must be positive."""
    for extent, step in dims:
        if extent <= 0 or step <= 0:
            raise IRError(f"bad counter dimension ({extent}, {step})")


def check_par(name: str, cchain: Optional[CounterChain], par: int) -> None:
    """``par`` must be >= 1 and divide the innermost iteration count."""
    if par < 1:
        raise IRError(f"parallelization factor must be >= 1, got {par}")
    if cchain is not None and par > 1 and cchain.counts[-1] % par != 0:
        raise IRError(
            f"{name}: parallelization factor {par} does not divide "
            f"innermost iteration count {cchain.counts[-1]}"
        )


class Controller(Node):
    """Base class for controller templates."""

    is_loop = False
    #: Whether ``par`` replicates the body (False for Pipe: vector width).
    replicates_body = True

    def __init__(
        self,
        design: "Design",
        name: str,
        cchain: Optional[CounterChain] = None,
        par: int = 1,
        pattern: str = "map",
    ) -> None:
        par, par_tag = untag(par)
        check_par(name, cchain, par)
        if pattern not in ("map", "reduce"):
            raise IRError(f"unknown parallel pattern {pattern!r}")
        super().__init__(design, name)
        design._slot(par_tag, self, "par")
        self.cchain = cchain
        self.par = par
        self.pattern = pattern
        # Maintained by Design._register as nodes are created in this scope:
        # ``children`` in program order, split into ``stages`` (child
        # controllers / memory command generators) and ``body_prims``
        # (primitive nodes directly inside this controller).
        self.children: List[Node] = []
        self.stages: List["Controller"] = []
        self.body_prims: List[Node] = []
        self.local_mems: List[OnChipMemory] = []
        self.result: Optional[Union[Value, OnChipMemory]] = None
        # (op, target memory) for cross-iteration accumulation — the paper's
        # trailing `{_+_}` on Pipe / MetaPipe (Figure 4 lines 37, 39).
        self.accum: Optional[Tuple[str, OnChipMemory]] = None
        if cchain is not None:
            cchain.par = par
        # Hardware copies of this controller's body: the enclosing copies
        # times this controller's own outer-loop factor (paper Figure 3).
        # Pipe parallelization is vector width instead, so it is excluded.
        self.update_replication()

    def update_replication(self) -> None:
        """Recompute ``body_replication`` from the parent's and ``par``."""
        outer = self.parent.body_replication if self.parent is not None else 1
        self.body_replication = (
            outer * self.par if self.par > 1 and self.replicates_body
            else outer
        )

    # -- structure -------------------------------------------------------------
    @property
    def iterations(self) -> int:
        """Number of (parallelized) iterations this controller executes."""
        if self.cchain is None:
            return 1
        return self.cchain.total_iterations // self.par

    @property
    def iters(self) -> List[CounterIter]:
        if self.cchain is None:
            raise IRError(f"{self.name} has no counter chain")
        return self.cchain.iters

    def returns(self, result: Union[Value, OnChipMemory]) -> None:
        """Designate the per-iteration result of this controller's body."""
        self.result = result

    # -- scope protocol ---------------------------------------------------------
    def __enter__(self) -> "Controller":
        self.design._push_scope(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.design._pop_scope(self)


class Pipe(Controller):
    """A fine-grained pipeline of primitive operations (innermost loops).

    With ``pattern='reduce'`` and an ``accum`` target, the body's result
    value is combined across the ``par`` replicas with a balanced tree and
    accumulated into the target register across iterations.
    """

    is_loop = True
    replicates_body = False


class MetaPipe(Controller):
    """A coarse-grained pipeline whose stages are other controllers."""

    is_loop = True


class Sequential(Controller):
    """Unpipelined, sequential execution of a chain of controllers."""

    is_loop = True


class Parallel(Controller):
    """Fork-join container executing child controllers concurrently."""

    def __init__(self, design: "Design", name: str) -> None:
        super().__init__(design, name, cchain=None, par=1)

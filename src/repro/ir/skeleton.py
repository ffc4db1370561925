"""Design skeletons: build one structural class once, re-bind its integers.

A DHDL design is a parameterized IR (paper Section III): a design point
binds tile sizes, parallelization factors and MetaPipe toggles onto a
fixed template graph. The toggles (and any value the builder branches on)
choose the graph; the integers only fill fields of its nodes. So a DSE
builds each structural class once, as a :class:`Skeleton`, and makes every
later point of that class by writing the point's integers into the
skeleton's recorded parameter slots.

A skeleton build calls the app's unchanged builder with every integer
parameter wrapped in a :class:`~repro.ir.node.ParamInt`. The IR
constructors that take integers (counter-chain dims, controller ``par``,
BRAM dims, tile-transfer starts/sizes/par, priority-queue depth and
:meth:`~repro.ir.graph.Design.as_value`) store a plain ``int`` and record
a ``(parameter, node, field, index)`` slot in ``Design.param_slots``. Any
other use of a tagged value makes that parameter *structural*: its value
joins the class key. For the registered apps the key is exactly the
boolean parameters.

:meth:`Skeleton.bind` writes every slot, re-runs the integer-dependent
validations of :func:`~repro.ir.controllers.check_counter_dims`,
:func:`~repro.ir.controllers.check_par`,
:func:`~repro.ir.memories.check_bram_dims`,
:func:`~repro.ir.memories.check_depth` and
:func:`~repro.ir.memops.check_tile` (raising :class:`IRError` exactly when
a fresh build would), then recomputes what depends on the integers:
``body_replication``, vector widths, banking, and the par-dependent memo
the cycles pass keeps on controllers. Double buffering and scope validation are
structural and stay as the skeleton build computed them. A bind that
raises leaves the skeleton rebindable: the next bind rewrites every slot.

A bound skeleton is the same object for every point of its class, so a
caller must finish with one point's design before binding the next.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Set, Tuple

from .controllers import (
    Controller,
    CounterChain,
    Pipe,
    check_counter_dims,
    check_par,
)
from .graph import Design
from .memops import TileTransfer, check_tile
from .memories import (
    BRAM,
    OnChipMemory,
    PriorityQueue,
    check_bram_dims,
    check_depth,
)
from .node import Const, Node, ParamInt
from .primitives import LoadOp, StoreOp

#: The memo the cycles pass keeps on controllers, derived from ``par``:
#: the replicated transfer count.
_REPLICATION_MEMO = "_weighted_transfers"

Params = Mapping[str, object]
#: Skeletons of one builder, by the class key's non-integer part.
Skeletons = Dict[Tuple, List["Skeleton"]]


def _is_int_param(value: object) -> bool:
    return type(value) is int


def _base_key(params: Params) -> Tuple:
    """The non-integer parameters (the toggles), sorted by name."""
    return tuple(sorted(
        (k, v) for k, v in params.items() if not _is_int_param(v)
    ))


class Skeleton:
    """One structural class of a parameterized design, bound to a point.

    ``structural`` maps each integer parameter the builder used other than
    by passing it to an IR constructor to the value it was built with;
    ``key`` is the class key: the non-integer parameters plus those
    values.
    """

    def __init__(
        self, design: Design, key: Tuple, structural: Dict[str, object]
    ) -> None:
        self.design = design
        self.key = key
        self.structural = structural
        self._slots = design.param_slots
        slot_nodes = {id(node) for _, node, _, _ in self._slots}
        par_ctrls = _unique(
            node for _, node, field, _ in self._slots
            if isinstance(node, Controller) and field == "par"
        )
        self._counted = [c for c in par_ctrls if c.cchain is not None]
        self._width_pipes = _unique(
            c for c in par_ctrls if isinstance(c, Pipe)
        )
        self._replication = any(not isinstance(c, Pipe) for c in par_ctrls)
        bank_mems: List[OnChipMemory] = []
        for pipe in self._width_pipes:
            bank_mems += [
                n.mem for n in pipe.body_prims
                if isinstance(n, (LoadOp, StoreOp))
            ]
        bank_mems += [c.bram for c in par_ctrls if isinstance(c, TileTransfer)]
        self._bank_mems = _unique(bank_mems)
        self._consts = _unique(
            node for _, node, _, _ in self._slots if isinstance(node, Const)
        )
        # Nodes whose integer validation can change: slot owners, loops
        # over a slotted counter chain, and transfers into a slotted BRAM.
        self._checks = sorted(
            (
                node for node in design.nodes
                if id(node) in slot_nodes
                or (isinstance(node, Controller) and node.cchain is not None
                    and id(node.cchain) in slot_nodes)
                or (isinstance(node, TileTransfer)
                    and id(node.bram) in slot_nodes)
            ),
            key=lambda node: node.nid,
        )

    @classmethod
    def build(
        cls, build: Callable[..., Design], params: Params
    ) -> "Skeleton":
        """Run ``build(**params)`` with tagged integers (may raise IRError)."""
        uses: Set[str] = set()
        tagged = {
            k: ParamInt(v, k, uses) if _is_int_param(v) else v
            for k, v in params.items()
        }
        design = build(**tagged)
        structural = {k: params[k] for k in sorted(uses)}
        return cls(design, _base_key(params) + tuple(structural.items()),
                   structural)

    def matches(self, params: Params) -> bool:
        """Whether ``params`` belong to this skeleton's structural class."""
        return _base_key(params) + tuple(
            (k, params[k]) for k in self.structural
        ) == self.key

    def bind(self, params: Params) -> Design:
        """Write ``params``' integers into the skeleton; validate; derive.

        ``params`` must belong to this class (:meth:`matches`). Returns the
        skeleton's design, now equal to a fresh build at ``params``.
        """
        design = self.design
        for name, node, field, index in self._slots:
            _write(node, field, index, params[name])
        for ctrl in self._counted:
            ctrl.cchain.par = ctrl.par
        for const in self._consts:
            const.name = f"c{const.value}"
        for node in self._checks:
            _check(node)
        if self._replication:
            for ctrl in design.controllers():
                ctrl.update_replication()
                ctrl.__dict__.pop(_REPLICATION_MEMO, None)
        design._assign_widths(self._width_pipes)
        design._infer_banking(self._bank_mems)
        return design


def instantiate(
    skeletons: Skeletons, build: Callable[..., Design], params: Params
) -> Design:
    """The design for ``params``: bind it onto its class's skeleton.

    ``skeletons`` is the caller's store; the first point of a class builds
    the skeleton (its design is already bound to that point). Raises
    :class:`~repro.ir.node.IRError` for an illegal point.
    """
    candidates = skeletons.setdefault(_base_key(params), [])
    for skeleton in candidates:
        if skeleton.matches(params):
            return skeleton.bind(params)
    skeleton = Skeleton.build(build, params)
    candidates.append(skeleton)
    return skeleton.design


def _write(node: Node, field: str, index: object, value: object) -> None:
    """Set ``node.field`` (or one element of it) to ``value``."""
    if index is None:
        setattr(node, field, value)
        return
    current = getattr(node, field)
    items = list(current)
    if isinstance(index, tuple):  # one (extent, step) of a counter chain
        row, col = index
        pair = list(items[row])
        pair[col] = value
        items[row] = tuple(pair)
    else:
        items[index] = value
    setattr(node, field, type(current)(items))


def _check(node: Node) -> None:
    """Re-run the integer validations the node's constructor applies."""
    if isinstance(node, CounterChain):
        check_counter_dims(node.dims)
    elif isinstance(node, Controller):
        check_par(node.name, node.cchain, node.par)
        if isinstance(node, TileTransfer):
            check_tile(node.name, node.offchip, node.bram, node.sizes)
    elif isinstance(node, BRAM):
        check_bram_dims(node.name, node.dims)
    elif isinstance(node, PriorityQueue):
        check_depth(node.depth)


def _unique(nodes) -> List:
    """``nodes`` without repeats, in first-seen order."""
    seen: Set[int] = set()
    out = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
    return out

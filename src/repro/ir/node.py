"""Base node classes for the DHDL intermediate representation.

A DHDL program is a hierarchical dataflow graph (paper Section III). Nodes
fall into four categories — primitives, memories, controllers, and memory
command generators — defined in sibling modules. This module provides the
common machinery: identity, ownership by a :class:`~repro.ir.graph.Design`,
scope (parent controller), and operator overloading on value-producing nodes
so that benchmark code reads like the paper's Figure 4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from .types import Bool, HWType, common_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .controllers import Controller
    from .graph import Design


class IRError(Exception):
    """Raised for structural errors while building or validating DHDL IR."""


class ParamInt(int):
    """An integer design parameter tagged with its name.

    A skeleton build (:mod:`repro.ir.skeleton`) passes every integer
    parameter to the app's unchanged builder as a ``ParamInt``. The IR
    constructors that take integers strip the tag with :func:`untag`
    before validating and record a parameter slot, so the value can later
    be re-bound in place. Every other use the type can see -- arithmetic,
    comparison, ``bool``, ``int``, ``__index__``, hashing, formatting --
    adds the parameter's name to ``uses``: the builder's structure may
    depend on the value, so the value becomes part of the class key.

    Operations implemented on the other operand's side (``2.5 * p``,
    ``math.log2(p)``) never reach this class; ``docs/extending.md`` asks
    app authors to pass integer parameters only to ``hw.*`` constructors.
    """

    def __new__(cls, value: int, param: str, uses: Set[str]) -> "ParamInt":
        self = super().__new__(cls, value)
        self.param = param
        self.uses = uses
        return self


def _plain(value: object) -> object:
    """``value`` with any tag stripped, recording the tagged use."""
    if type(value) is ParamInt:
        value.uses.add(value.param)
        return int.__int__(value)
    return value


def _structural(method_name: str):
    method = getattr(int, method_name)

    def use(self, *args):
        return method(_plain(self), *(_plain(a) for a in args))

    use.__name__ = method_name
    use.__doc__ = method.__doc__
    return use


for _name in (
    "__abs__", "__add__", "__and__", "__bool__", "__ceil__", "__divmod__",
    "__eq__", "__float__", "__floor__", "__floordiv__", "__format__",
    "__ge__", "__gt__", "__hash__", "__index__", "__int__", "__invert__",
    "__le__", "__lshift__", "__lt__", "__mod__", "__mul__", "__ne__",
    "__neg__", "__or__", "__pos__", "__pow__", "__radd__", "__rand__",
    "__rdivmod__", "__repr__", "__rfloordiv__", "__rlshift__", "__rmod__",
    "__rmul__", "__ror__", "__round__", "__rpow__", "__rrshift__",
    "__rshift__", "__rsub__", "__rtruediv__", "__rxor__", "__str__",
    "__sub__", "__truediv__", "__trunc__", "__xor__", "as_integer_ratio",
    "bit_count", "bit_length", "conjugate", "to_bytes",
):
    setattr(ParamInt, _name, _structural(_name))
for _name in ("denominator", "imag", "numerator", "real"):
    setattr(ParamInt, _name,
            property(lambda self, attr=_name: getattr(_plain(self), attr)))


def untag(value: object) -> Tuple[object, Optional[str]]:
    """``(plain value, parameter name or None)`` for a constructor argument.

    Unlike every other use of a :class:`ParamInt`, untagging is not a
    structural use: the caller records a parameter slot instead.
    """
    if type(value) is ParamInt:
        return int.__int__(value), value.param
    return value, None


class Node:
    """A node in the DHDL graph.

    Every node belongs to exactly one :class:`Design` and records the
    controller scope it was created in (``None`` for top-level declarations
    such as off-chip memories).
    """

    def __init__(self, design: "Design", name: str) -> None:
        self.design = design
        self.name = name
        self.parent: Optional["Controller"] = design._current_scope()
        self.nid: int = design._register(self)

    @property
    def kind(self) -> str:
        return type(self).__name__

    def ancestors(self) -> List["Controller"]:
        """Controllers enclosing this node, innermost first."""
        out: List["Controller"] = []
        cur = self.parent
        while cur is not None:
            out.append(cur)
            cur = cur.parent
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} #{self.nid} {self.name}>"


class Value(Node):
    """A node producing a (possibly vectorized) hardware value.

    ``width`` is the vector width: the number of parallel lanes instantiated
    for this node. It is assigned during design finalization from the
    parallelization factor of the enclosing Pipe (paper Table I: every
    primitive node represents a vector computation).
    """

    def __init__(self, design: "Design", name: str, tp: HWType) -> None:
        super().__init__(design, name)
        self.tp = tp
        self.inputs: List["Value"] = []
        self.width: int = 1

    # -- operator overloading -------------------------------------------------
    def _binop(self, op: str, other: object, reverse: bool = False) -> "Value":
        other_v = self.design.as_value(other, like=self.tp)
        lhs, rhs = (other_v, self) if reverse else (self, other_v)
        return self.design.add_binop(op, lhs, rhs)

    def __add__(self, other: object) -> "Value":
        return self._binop("add", other)

    def __radd__(self, other: object) -> "Value":
        return self._binop("add", other, reverse=True)

    def __sub__(self, other: object) -> "Value":
        return self._binop("sub", other)

    def __rsub__(self, other: object) -> "Value":
        return self._binop("sub", other, reverse=True)

    def __mul__(self, other: object) -> "Value":
        return self._binop("mul", other)

    def __rmul__(self, other: object) -> "Value":
        return self._binop("mul", other, reverse=True)

    def __truediv__(self, other: object) -> "Value":
        return self._binop("div", other)

    def __rtruediv__(self, other: object) -> "Value":
        return self._binop("div", other, reverse=True)

    def __lt__(self, other: object) -> "Value":
        return self._binop("lt", other)

    def __gt__(self, other: object) -> "Value":
        return self._binop("gt", other)

    def __le__(self, other: object) -> "Value":
        return self._binop("le", other)

    def __ge__(self, other: object) -> "Value":
        return self._binop("ge", other)

    def eq(self, other: object) -> "Value":
        """Equality comparison node (``==`` is kept as object identity)."""
        return self._binop("eq", other)

    def __and__(self, other: object) -> "Value":
        return self._binop("and", other)

    def __or__(self, other: object) -> "Value":
        return self._binop("or", other)

    def __neg__(self) -> "Value":
        return self.design.add_unop("neg", self)

    def __invert__(self) -> "Value":
        return self.design.add_unop("not", self)


class Const(Value):
    """A compile-time constant value."""

    def __init__(self, design: "Design", value: object, tp: HWType) -> None:
        super().__init__(design, f"c{value}", tp)
        self.value = value


def result_type(op: str, a: HWType, b: HWType) -> HWType:
    """Output type of a binary primitive operation."""
    if op in ("lt", "gt", "le", "ge", "eq", "ne"):
        common_type(a, b)  # validates compatibility
        return Bool
    if op in ("and", "or"):
        return Bool
    return common_type(a, b)

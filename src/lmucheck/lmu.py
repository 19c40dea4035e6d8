"""Abstract syntax and syntactic operations for the quantitative fixed-point logic.

Formulas are immutable and unique: building a node whose class and fields
equal those of a live node returns that node, so `==` and `hash` are
identity and equal subformulas are shared. Each node carries `free`, its
sorted free variable names. The leaves `ONE` and `ZERO` are the literals
`1` and `0`, constants with that value everywhere (not fixed points), and
`constant(q)` is the scalar constant `q*1`. All coefficients are rationals
in [0, 1]. A fixed-point term, the evaluator's input, is a formula without
modalities, propositions or complements.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Iterator

from .rationals import format_rational

__all__ = [
    "Lmu",
    "Var",
    "Prop",
    "CoProp",
    "Const",
    "Scalar",
    "Join",
    "Meet",
    "OPlus",
    "OTimes",
    "Diamond",
    "Box",
    "Mu",
    "Nu",
    "ONE",
    "ZERO",
    "INFIX",
    "PREFIX",
    "constant",
    "used_names",
    "fresh_names",
    "render_lmu",
    "dual",
    "expand_threshold",
    "normalize_binders",
    "propositions",
    "subformulas",
]

# every live node, keyed by its class and fields; a node drops out when the
# last reference to it goes
_nodes: weakref.WeakValueDictionary[tuple, Lmu] = weakref.WeakValueDictionary()


class Lmu:
    """A formula node: immutable, with its sorted free variable names in `free`.

    Nodes are hash-consed: a construction whose class and fields equal those
    of a live node returns that node unchanged (there is no `__init__`).
    Each subclass lists its fields once, as `__slots__ = _fields = (...)`.
    Classes that validate or normalise a field do so before the lookup, so
    `Scalar(1, x)` and `Scalar(Fraction(1), x)` are one node.
    """

    __slots__ = ("free", "__weakref__")
    _fields: tuple[str, ...] = ()
    free: tuple[str, ...]

    def __new__(cls, *values):
        key = (cls, *values)
        node = _nodes.get(key)
        if node is None:
            if len(values) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes fields {cls._fields}, got {values!r}")
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "free", _free_names(node))
            _nodes[key] = node
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copies and unpickled nodes are built through the table, so they
        # are the node itself
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Var(Lmu):
    __slots__ = _fields = ("name",)
    name: str


class Prop(Lmu):
    __slots__ = _fields = ("name",)
    name: str


class CoProp(Lmu):
    __slots__ = _fields = ("name",)
    name: str


class Const(Lmu):
    """The literal `1` or `0`; `ONE` and `ZERO` are its only values."""

    __slots__ = _fields = ("value",)
    value: Fraction

    def __new__(cls, value):
        if type(value) is not Fraction:
            if isinstance(value, float):
                raise ValueError(f"constant {value!r} is a float, not an exact rational")
            value = Fraction(value)
        if value not in (0, 1):
            raise ValueError(f"constant {value} is neither 0 nor 1")
        return super().__new__(cls, value)


class Scalar(Lmu):
    __slots__ = _fields = ("factor", "body")
    factor: Fraction
    body: Lmu

    def __new__(cls, factor, body):
        if type(factor) is not Fraction:
            if isinstance(factor, float):
                raise ValueError(f"scalar factor {factor!r} is a float, not an exact rational")
            factor = Fraction(factor)
        if not (0 <= factor.numerator <= factor.denominator):
            raise ValueError(f"scalar factor {factor} outside [0, 1]")
        return super().__new__(cls, factor, body)


class Join(Lmu):
    __slots__ = _fields = ("left", "right")
    left: Lmu
    right: Lmu


class Meet(Lmu):
    __slots__ = _fields = ("left", "right")
    left: Lmu
    right: Lmu


class OPlus(Lmu):
    __slots__ = _fields = ("left", "right")
    left: Lmu
    right: Lmu


class OTimes(Lmu):
    __slots__ = _fields = ("left", "right")
    left: Lmu
    right: Lmu


class Diamond(Lmu):
    __slots__ = _fields = ("body",)
    body: Lmu


class Box(Lmu):
    __slots__ = _fields = ("body",)
    body: Lmu


class Mu(Lmu):
    __slots__ = _fields = ("var", "body")
    var: str
    body: Lmu


class Nu(Lmu):
    __slots__ = _fields = ("var", "body")
    var: str
    body: Lmu


_BINARY = {Join, Meet, OPlus, OTimes}
_UNARY = {Scalar, Diamond, Box}


def _free_names(node: Lmu) -> tuple[str, ...]:
    """Sorted free variable names of a new node, from its children's."""
    kind = type(node)
    if kind in _BINARY:
        left, right = node.left.free, node.right.free
        if left == right or not right:
            return left
        return tuple(sorted(frozenset(left + right))) if left else right
    if kind in _UNARY:
        return node.body.free
    if kind is Var:
        return (node.name,)
    if kind is Mu or kind is Nu:
        free = node.body.free
        if node.var not in free:
            return free
        i = free.index(node.var)
        return free[:i] + free[i + 1 :]
    return ()


ONE = Const(Fraction(1))
ZERO = Const(Fraction(0))


def constant(q: Fraction) -> Lmu:
    """The constant formula with value q everywhere."""
    return Scalar(q, ONE)


def subformulas(phi: Lmu) -> Iterator[Lmu]:
    """Depth-first pre-order walk, the formula itself included."""
    stack = [phi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Join, Meet, OPlus, OTimes)):
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, (Scalar, Diamond, Box, Mu, Nu)):
            stack.append(node.body)


def propositions(phi: Lmu) -> set[str]:
    """Names of the propositions occurring in phi, complemented or not."""
    return {s.name for s in subformulas(phi) if isinstance(s, (Prop, CoProp))}


def used_names(phi: Lmu) -> set[str]:
    """Every identifier occurring in phi (variables, binders, propositions)."""
    names: set[str] = set()
    for sub in subformulas(phi):
        if isinstance(sub, (Var, Prop, CoProp)):
            names.add(sub.name)
        elif isinstance(sub, (Mu, Nu)):
            names.add(sub.var)
    return names


def fresh_names(avoid: set[str]) -> Iterator[str]:
    """Reserved-namespace variable names `_T1`, `_T2`, ... skipping collisions."""
    k = 1
    while True:
        name = f"_T{k}"
        if name not in avoid:
            yield name
        k += 1


# the concrete syntax: infix connectives loosest first, each left-associative,
# then the modalities; scalars, atoms and binders bind tighter still
INFIX = ((Join, "\\/"), (Meet, "/\\"), (OPlus, "(+)"), (OTimes, "(.)"))
PREFIX = {Diamond: "<>", Box: "[]"}

# precedence levels: each infix connective's is its table index + 1
_INFIX_LEVEL = {cls: (level, f" {symbol} ") for level, (cls, symbol) in enumerate(INFIX, 1)}
_LEVEL_MODAL = len(INFIX) + 1
_LEVEL_SCALAR = _LEVEL_MODAL + 1


def _render(phi: Lmu, min_level: int) -> str:
    kind = type(phi)
    infix = _INFIX_LEVEL.get(kind)
    if infix is not None:
        level, symbol = infix
        text = f"{_render(phi.left, level)}{symbol}{_render(phi.right, level + 1)}"
    elif kind is Var or kind is Prop:
        return phi.name
    elif kind is Const:
        return format_rational(phi.value)
    elif kind is Scalar:
        text = f"{format_rational(phi.factor)}*{_render(phi.body, _LEVEL_SCALAR)}"
        level = _LEVEL_SCALAR
    elif kind in PREFIX:
        text = f"{PREFIX[kind]}{_render(phi.body, _LEVEL_MODAL)}"
        level = _LEVEL_MODAL
    elif kind is CoProp:
        return f"~{phi.name}"
    elif kind is Mu or kind is Nu:
        # the parens delimit the scope; the parser reads them as the body
        return f"{'mu' if kind is Mu else 'nu'} {phi.var}. ({_render(phi.body, 0)})"
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if level < min_level:
        return f"({text})"
    return text


def render_lmu(phi: Lmu) -> str:
    return _render(phi, 0)


def dual(phi: Lmu) -> Lmu:
    """The complement formula: value(dual(phi)) = 1 - value(phi), exactly.

    Defined on closed formulas only. Connectives swap with their duals,
    propositions with their complements, 1 with 0, and binders flip while
    keeping their names. A scalar `q phi` maps to `(q dual(phi)) (+) (1-q)1`,
    which equals 1 - q*v without ever saturating (the sum stays within
    [0, 1]).
    """
    if phi.free:
        raise ValueError(f"dual is defined on closed formulas; free: {list(phi.free)}")
    return _dual(phi)


_DUALS = {Join: Meet, Meet: Join, OPlus: OTimes, OTimes: OPlus, Diamond: Box, Box: Diamond}


def _dual(phi: Lmu) -> Lmu:
    kind = type(phi)
    swapped = _DUALS.get(kind)
    if swapped is not None:
        if kind in _BINARY:
            return swapped(_dual(phi.left), _dual(phi.right))
        return swapped(_dual(phi.body))
    if kind is Var:
        return phi
    if kind is Prop:
        return CoProp(phi.name)
    if kind is CoProp:
        return Prop(phi.name)
    if kind is Const:
        return ZERO if phi.value else ONE
    if kind is Scalar:
        return OPlus(Scalar(phi.factor, _dual(phi.body)), constant(1 - phi.factor))
    if kind is Mu or kind is Nu:
        return (Nu if kind is Mu else Mu)(phi.var, _dual(phi.body))
    raise TypeError(f"not a formula: {phi!r}")


def expand_threshold(rel: str, phi: Lmu, q: Fraction | None = None) -> Lmu:
    """Threshold macro: value 1 where value(phi) clears the bound, else 0.

    rel is one of `>0`, `=1`, `>`, `>=`; the last two take q in (0, 1)
    (boundary values of q are the caller's duty):

        P_>0(phi)  = mu X. (X (+) phi)
        P_=1(phi)  = nu X. (X (.) phi)
        P_>q(phi)  = P_>0(phi (.) (1-q)1)
        P_>=q(phi) = P_=1(phi (+) (1-q)1)
    """
    fresh = next(fresh_names(used_names(phi)))
    if rel == ">0":
        return Mu(fresh, OPlus(Var(fresh), phi))
    if rel == "=1":
        return Nu(fresh, OTimes(Var(fresh), phi))
    if q is None or not (0 < q < 1):
        raise ValueError(f"threshold {rel} requires q in (0, 1), got {q}")
    if rel == ">":
        return Mu(fresh, OPlus(Var(fresh), OTimes(phi, constant(1 - q))))
    if rel == ">=":
        return Nu(fresh, OTimes(Var(fresh), OPlus(phi, constant(1 - q))))
    raise ValueError(f"unknown threshold relation {rel!r}")


def normalize_binders(phi: Lmu) -> Lmu:
    """Alpha-rename so binders bind pairwise distinct variables X_1, X_2, ...

    Numbering follows depth-first pre-order. Names are chosen to avoid the
    formula's proposition names, so rendering stays capture-free.
    """
    avoid = propositions(phi)
    avoid.update(phi.free)
    counter = [0]

    def next_name() -> str:
        while True:
            counter[0] += 1
            name = f"X_{counter[0]}"
            if name not in avoid:
                return name

    def walk(node: Lmu, env: dict[str, str]) -> Lmu:
        if isinstance(node, Var):
            return Var(env.get(node.name, node.name))
        if isinstance(node, (Prop, CoProp, Const)):
            return node
        if isinstance(node, Scalar):
            return Scalar(node.factor, walk(node.body, env))
        if isinstance(node, (Join, Meet, OPlus, OTimes)):
            return type(node)(walk(node.left, env), walk(node.right, env))
        if isinstance(node, (Diamond, Box)):
            return type(node)(walk(node.body, env))
        if isinstance(node, (Mu, Nu)):
            name = next_name()
            return type(node)(name, walk(node.body, {**env, node.var: name}))
        raise TypeError(f"not a formula: {node!r}")

    try:
        return walk(phi, {})
    finally:
        walk = None  # break the self-reference: the call's data is freed on exit

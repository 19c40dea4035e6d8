"""Abstract syntax and syntactic operations for the quantitative fixed-point logic.

Formulas are immutable trees. The leaves `ONE` and `ZERO` are the literals
`1` and `0`, constants with that value everywhere (not fixed points), and
`constant(q)` is the scalar constant `q*1`. All coefficients are rationals
in [0, 1]. The fixed-point terms of `terms` are the formulas without
modalities, propositions or complements.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "constant",
    "free_name_map",
    "extend_free_name_map",
    "free_variables",
    "used_names",
    "fresh_names",
    "render_lmu",
    "dual",
    "expand_threshold",
    "normalize_binders",
    "subformulas",
]


@dataclass(frozen=True)
class Lmu:
    pass


@dataclass(frozen=True)
class Var(Lmu):
    name: str


@dataclass(frozen=True)
class Prop(Lmu):
    name: str


@dataclass(frozen=True)
class CoProp(Lmu):
    name: str


@dataclass(frozen=True)
class Const(Lmu):
    """The literal `1` or `0`; `ONE` and `ZERO` are its only values."""

    value: Fraction

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"constant {self.value} is neither 0 nor 1")


@dataclass(frozen=True)
class Scalar(Lmu):
    factor: Fraction
    body: Lmu

    def __post_init__(self) -> None:
        if not (0 <= self.factor <= 1):
            raise ValueError(f"scalar factor {self.factor} outside [0, 1]")


@dataclass(frozen=True)
class Join(Lmu):
    left: Lmu
    right: Lmu


@dataclass(frozen=True)
class Meet(Lmu):
    left: Lmu
    right: Lmu


@dataclass(frozen=True)
class OPlus(Lmu):
    left: Lmu
    right: Lmu


@dataclass(frozen=True)
class OTimes(Lmu):
    left: Lmu
    right: Lmu


@dataclass(frozen=True)
class Diamond(Lmu):
    body: Lmu


@dataclass(frozen=True)
class Box(Lmu):
    body: Lmu


@dataclass(frozen=True)
class Mu(Lmu):
    var: str
    body: Lmu


@dataclass(frozen=True)
class Nu(Lmu):
    var: str
    body: Lmu


ONE = Const(Fraction(1))
ZERO = Const(Fraction(0))


def constant(q: Fraction) -> Lmu:
    """The constant formula with value q everywhere."""
    return Scalar(Fraction(q), ONE)


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


def free_name_map(root: Lmu) -> dict[int, tuple[str, ...]]:
    """Sorted free variable names per node id; shared subformulas visited once."""
    free: dict[int, tuple[str, ...]] = {}
    extend_free_name_map(free, root)
    return free


def extend_free_name_map(free: dict[int, tuple[str, ...]], root: Lmu) -> None:
    """Add the nodes of `root` to a free-name map, skipping ids it holds.

    The caller keeps every mapped node alive, so an id it holds still names
    the node it was mapped for.
    """
    stack: list[tuple[Lmu, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in free:
            continue
        if isinstance(node, Var):
            free[id(node)] = (node.name,)
            continue
        children: tuple[Lmu, ...]
        if isinstance(node, (Join, Meet, OPlus, OTimes)):
            children = (node.left, node.right)
        elif isinstance(node, (Scalar, Diamond, Box, Mu, Nu)):
            children = (node.body,)
        elif isinstance(node, (Prop, CoProp, Const)):
            children = ()
        else:
            raise TypeError(f"not a formula: {node!r}")
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
            continue
        merged: set[str] = set()
        for c in children:
            merged.update(free[id(c)])
        if isinstance(node, (Mu, Nu)):
            merged.discard(node.var)
        free[id(node)] = tuple(sorted(merged))


def free_variables(phi: Lmu) -> frozenset[str]:
    return frozenset(free_name_map(phi)[id(phi)])


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


_LEVEL_BINDER = 0
_LEVEL_JOIN = 1
_LEVEL_MEET = 2
_LEVEL_OPLUS = 3
_LEVEL_OTIMES = 4
_LEVEL_MODAL = 5
_LEVEL_SCALAR = 6
_LEVEL_ATOM = 7


def _render(phi: Lmu, min_level: int) -> str:
    if isinstance(phi, Const):
        return format_rational(phi.value)
    if isinstance(phi, (Var, Prop)):
        return phi.name
    if isinstance(phi, CoProp):
        return f"~{phi.name}"
    if isinstance(phi, Scalar):
        text = f"{format_rational(phi.factor)}*{_render(phi.body, _LEVEL_SCALAR)}"
        level = _LEVEL_SCALAR
    elif isinstance(phi, Diamond):
        text = f"<>{_render(phi.body, _LEVEL_MODAL)}"
        level = _LEVEL_MODAL
    elif isinstance(phi, Box):
        text = f"[]{_render(phi.body, _LEVEL_MODAL)}"
        level = _LEVEL_MODAL
    elif isinstance(phi, OTimes):
        text = f"{_render(phi.left, _LEVEL_OTIMES)} (.) {_render(phi.right, _LEVEL_OTIMES + 1)}"
        level = _LEVEL_OTIMES
    elif isinstance(phi, OPlus):
        text = f"{_render(phi.left, _LEVEL_OPLUS)} (+) {_render(phi.right, _LEVEL_OPLUS + 1)}"
        level = _LEVEL_OPLUS
    elif isinstance(phi, Meet):
        text = f"{_render(phi.left, _LEVEL_MEET)} /\\ {_render(phi.right, _LEVEL_MEET + 1)}"
        level = _LEVEL_MEET
    elif isinstance(phi, Join):
        text = f"{_render(phi.left, _LEVEL_JOIN)} \\/ {_render(phi.right, _LEVEL_JOIN + 1)}"
        level = _LEVEL_JOIN
    elif isinstance(phi, Mu):
        # the parens delimit the scope; the parser reads them as the body
        text = f"mu {phi.var}. ({_render(phi.body, _LEVEL_BINDER)})"
        level = _LEVEL_ATOM
    elif isinstance(phi, Nu):
        text = f"nu {phi.var}. ({_render(phi.body, _LEVEL_BINDER)})"
        level = _LEVEL_ATOM
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if level < min_level:
        return f"({text})"
    return text


def render_lmu(phi: Lmu) -> str:
    return _render(phi, _LEVEL_BINDER)


def dual(phi: Lmu) -> Lmu:
    """The complement formula: value(dual(phi)) = 1 - value(phi), exactly.

    Defined on closed formulas only. Connectives swap with their duals,
    propositions with their complements, 1 with 0, and binders flip while
    keeping their names. A scalar `q phi` maps to `(q dual(phi)) (+) (1-q)1`,
    which equals 1 - q*v without ever saturating (the sum stays within
    [0, 1]).
    """
    free = free_variables(phi)
    if free:
        raise ValueError(f"dual is defined on closed formulas; free: {sorted(free)}")
    return _dual(phi)


def _dual(phi: Lmu) -> Lmu:
    if isinstance(phi, Var):
        return phi
    if isinstance(phi, Prop):
        return CoProp(phi.name)
    if isinstance(phi, CoProp):
        return Prop(phi.name)
    if isinstance(phi, Const):
        return ZERO if phi.value else ONE
    if isinstance(phi, Scalar):
        return OPlus(Scalar(phi.factor, _dual(phi.body)), constant(1 - phi.factor))
    if isinstance(phi, Join):
        return Meet(_dual(phi.left), _dual(phi.right))
    if isinstance(phi, Meet):
        return Join(_dual(phi.left), _dual(phi.right))
    if isinstance(phi, OPlus):
        return OTimes(_dual(phi.left), _dual(phi.right))
    if isinstance(phi, OTimes):
        return OPlus(_dual(phi.left), _dual(phi.right))
    if isinstance(phi, Diamond):
        return Box(_dual(phi.body))
    if isinstance(phi, Box):
        return Diamond(_dual(phi.body))
    if isinstance(phi, Mu):
        return Nu(phi.var, _dual(phi.body))
    if isinstance(phi, Nu):
        return Mu(phi.var, _dual(phi.body))
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
    avoid = {s.name for s in subformulas(phi) if isinstance(s, (Prop, CoProp))}
    avoid |= free_variables(phi)
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

    return walk(phi, {})

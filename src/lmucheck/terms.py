"""Fixed-point terms denoting monotone functions [0,1]^n -> [0,1].

The grammar is variables, scalar multiplication by a rational in [0, 1],
min/max (TMeet/TJoin), truncated sum and product (TOPlus/TOTimes), and the
two fixed-point binders. There is no constant constructor; `tconst(q)` is
the scalar sugar `q*(nu x. x)`. Binders may shadow (the evaluator scopes
variables lexically), which the state translation exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import format_rational

__all__ = [
    "Term",
    "TVar",
    "TScalar",
    "TJoin",
    "TMeet",
    "TOPlus",
    "TOTimes",
    "TMu",
    "TNu",
    "T_ONE",
    "T_ZERO",
    "tconst",
    "free_name_map",
    "term_free_variables",
    "render_term",
]


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class TVar(Term):
    name: str


@dataclass(frozen=True)
class TScalar(Term):
    factor: Fraction
    body: Term

    def __post_init__(self) -> None:
        if not (0 <= self.factor <= 1):
            raise ValueError(f"scalar factor {self.factor} outside [0, 1]")


@dataclass(frozen=True)
class TJoin(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TMeet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TOPlus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TOTimes(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TMu(Term):
    var: str
    body: Term


@dataclass(frozen=True)
class TNu(Term):
    var: str
    body: Term


ONE_VAR = "_1"
T_ONE = TNu(ONE_VAR, TVar(ONE_VAR))
T_ZERO = TMu(ONE_VAR, TVar(ONE_VAR))


def tconst(q: Fraction) -> Term:
    """Constant term with value q."""
    return TScalar(Fraction(q), T_ONE)


def free_name_map(root: Term) -> dict[int, tuple[str, ...]]:
    """Sorted free variable names per node id; shared subterms visited once."""
    free: dict[int, tuple[str, ...]] = {}
    stack: list[tuple[Term, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in free:
            continue
        if isinstance(node, TVar):
            free[id(node)] = (node.name,)
            continue
        children: tuple[Term, ...]
        if isinstance(node, (TJoin, TMeet, TOPlus, TOTimes)):
            children = (node.left, node.right)
        elif isinstance(node, (TScalar, TMu, TNu)):
            children = (node.body,)
        else:
            raise TypeError(f"not a term: {node!r}")
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in children)
            continue
        merged: set[str] = set()
        for c in children:
            merged.update(free[id(c)])
        if isinstance(node, (TMu, TNu)):
            merged.discard(node.var)
        free[id(node)] = tuple(sorted(merged))
    return free


def term_free_variables(t: Term) -> frozenset[str]:
    return frozenset(free_name_map(t)[id(t)])


_LEVEL_BINDER = 0
_LEVEL_JOIN = 1
_LEVEL_MEET = 2
_LEVEL_OPLUS = 3
_LEVEL_OTIMES = 4
_LEVEL_SCALAR = 6
_LEVEL_ATOM = 7


def _render(t: Term, min_level: int) -> str:
    if t == T_ONE:
        return "1"
    if t == T_ZERO:
        return "0"
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TScalar):
        text = f"{format_rational(t.factor)}*{_render(t.body, _LEVEL_SCALAR)}"
        level = _LEVEL_SCALAR
    elif isinstance(t, TOTimes):
        text = f"{_render(t.left, _LEVEL_OTIMES)} (.) {_render(t.right, _LEVEL_OTIMES + 1)}"
        level = _LEVEL_OTIMES
    elif isinstance(t, TOPlus):
        text = f"{_render(t.left, _LEVEL_OPLUS)} (+) {_render(t.right, _LEVEL_OPLUS + 1)}"
        level = _LEVEL_OPLUS
    elif isinstance(t, TMeet):
        text = f"{_render(t.left, _LEVEL_MEET)} /\\ {_render(t.right, _LEVEL_MEET + 1)}"
        level = _LEVEL_MEET
    elif isinstance(t, TJoin):
        text = f"{_render(t.left, _LEVEL_JOIN)} \\/ {_render(t.right, _LEVEL_JOIN + 1)}"
        level = _LEVEL_JOIN
    elif isinstance(t, TMu):
        # the parens delimit the scope; the parser reads them as the body
        text = f"mu {t.var}. ({_render(t.body, _LEVEL_BINDER)})"
        level = _LEVEL_ATOM
    elif isinstance(t, TNu):
        text = f"nu {t.var}. ({_render(t.body, _LEVEL_BINDER)})"
        level = _LEVEL_ATOM
    else:
        raise TypeError(f"not a term: {t!r}")
    if level < min_level:
        return f"({text})"
    return text


def render_term(t: Term) -> str:
    return _render(t, _LEVEL_BINDER)

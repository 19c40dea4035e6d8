"""PCTL abstract syntax over boolean-valued models.

State formulas: true, propositions, negation, disjunction, path quantifiers
E/A over a path formula, and probability bounds Pmax/Pmin (sup respectively
inf over schedulers) with relation `>` or `>=` and a rational threshold in
[0, 1]. Path formulas: next `X phi` and until `phi U phi`. The surface sugar
`&` and `false` desugars at parse time and never appears in trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import format_rational

__all__ = [
    "PctlState",
    "PctlPath",
    "TrueFormula",
    "Prop",
    "Not",
    "Or",
    "Exists",
    "Forall",
    "ProbExists",
    "ProbForall",
    "Next",
    "Until",
    "TRUE",
    "conj",
    "false",
    "propositions",
    "render_pctl",
]


@dataclass(frozen=True)
class PctlState:
    pass


@dataclass(frozen=True)
class PctlPath:
    pass


@dataclass(frozen=True)
class TrueFormula(PctlState):
    pass


@dataclass(frozen=True)
class Prop(PctlState):
    name: str


@dataclass(frozen=True)
class Not(PctlState):
    body: PctlState


@dataclass(frozen=True)
class Or(PctlState):
    left: PctlState
    right: PctlState


@dataclass(frozen=True)
class Exists(PctlState):
    path: PctlPath


@dataclass(frozen=True)
class Forall(PctlState):
    path: PctlPath


def _check_bound(bound: Fraction) -> None:
    if isinstance(bound, float):
        raise ValueError(f"probability bound {bound!r} is a float, not an exact rational")
    if not (0 <= bound <= 1):
        raise ValueError(f"probability bound {bound} outside [0, 1]")


@dataclass(frozen=True)
class ProbExists(PctlState):
    strict: bool  # True for `>`, False for `>=`
    bound: Fraction
    path: PctlPath

    def __post_init__(self) -> None:
        _check_bound(self.bound)


@dataclass(frozen=True)
class ProbForall(PctlState):
    strict: bool
    bound: Fraction
    path: PctlPath

    def __post_init__(self) -> None:
        _check_bound(self.bound)


@dataclass(frozen=True)
class Next(PctlPath):
    body: PctlState


@dataclass(frozen=True)
class Until(PctlPath):
    left: PctlState
    right: PctlState


TRUE = TrueFormula()


def conj(left: PctlState, right: PctlState) -> PctlState:
    """Surface `&`, defined through negation and disjunction."""
    return Not(Or(Not(left), Not(right)))


def false() -> PctlState:
    return Not(TRUE)


def propositions(phi: PctlState) -> set[str]:
    """Names of the propositions occurring in phi."""
    names: set[str] = set()
    stack: list[PctlState | PctlPath] = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Prop):
            names.add(node.name)
        elif isinstance(node, (Not, Next)):
            stack.append(node.body)
        elif isinstance(node, (Or, Until)):
            stack += (node.left, node.right)
        elif isinstance(node, (Exists, Forall, ProbExists, ProbForall)):
            stack.append(node.path)
    return names


# `|` is the one infix connective and left-associative; every other state
# formula binds tighter and is never parenthesized
_LEVEL_OR = 0
_LEVEL_UNARY = 1


def _render_path(psi: PctlPath, next_level: int) -> str:
    """`X phi`, with phi rendered at next_level, or `phi U psi`, unbracketed."""
    if isinstance(psi, Next):
        return f"X {_render(psi.body, next_level)}"
    if isinstance(psi, Until):
        return f"{_render(psi.left, _LEVEL_OR)} U {_render(psi.right, _LEVEL_OR)}"
    raise TypeError(f"not a path formula: {psi!r}")


def _render(phi: PctlState, min_level: int) -> str:
    if isinstance(phi, Or):
        text = f"{_render(phi.left, _LEVEL_OR)} | {_render(phi.right, _LEVEL_UNARY)}"
        return f"({text})" if min_level > _LEVEL_OR else text
    if isinstance(phi, TrueFormula):
        return "true"
    if isinstance(phi, Prop):
        return phi.name
    if isinstance(phi, Not):
        return f"!{_render(phi.body, _LEVEL_UNARY)}"
    if isinstance(phi, (Exists, Forall)):
        head = "E" if isinstance(phi, Exists) else "A"
        path = _render_path(phi.path, _LEVEL_UNARY)
        return f"{head} {path}" if isinstance(phi.path, Next) else f"{head}[{path}]"
    if isinstance(phi, (ProbExists, ProbForall)):
        head = "Pmax" if isinstance(phi, ProbExists) else "Pmin"
        rel = ">" if phi.strict else ">="
        return f"{head}{rel}{format_rational(phi.bound)}[{_render_path(phi.path, _LEVEL_OR)}]"
    raise TypeError(f"not a state formula: {phi!r}")


def render_pctl(phi: PctlState) -> str:
    return _render(phi, _LEVEL_OR)

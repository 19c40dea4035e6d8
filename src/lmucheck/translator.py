"""Translation of a closed formula over a finite model into one closed term per state.

Binders are first alpha-renamed apart and indexed 1..m in pre-order. The
translation walks the formula per state, tracking in a context which
(binder, state) pairs are currently open: a variable hit inside the context
becomes the term variable `x_i@s`, a miss re-expands its binder at the
current state after resetting every subordinate binder (those nested inside
it), and the modalities expand into joins/meets over the available
distributions of truncated-sum convex combinations. Re-expansion can bind
the same `x_i@s` at several places, including shadowed nesting; the
evaluator scopes term variables lexically, so this is sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, terms
from .model import Interpretation, Pnts

__all__ = [
    "TranslationError",
    "BinderIndex",
    "index_binders",
    "domination_relation",
    "gamma_step",
    "term_var",
    "translate",
    "translate_all",
]


class TranslationError(ValueError):
    """Bad translation input or blown expansion budget."""


@dataclass(frozen=True)
class BinderIndex:
    """Pre-order numbering of a normalized formula's binders."""

    kinds: tuple[str, ...]  # "mu" | "nu", position i holds binder i+1
    bodies: tuple[lmu.Lmu, ...]
    index_of: dict[str, int]  # bound variable name -> 1-based index

    @property
    def count(self) -> int:
        return len(self.kinds)


def index_binders(phi: lmu.Lmu) -> BinderIndex:
    """Number the binders of a formula whose bound variables are distinct."""
    kinds: list[str] = []
    bodies: list[lmu.Lmu] = []
    index_of: dict[str, int] = {}
    for sub in lmu.subformulas(phi):
        if isinstance(sub, (lmu.Mu, lmu.Nu)):
            if sub.var in index_of:
                raise TranslationError(f"binder variable {sub.var} is not distinct")
            index_of[sub.var] = len(kinds) + 1
            kinds.append("mu" if isinstance(sub, lmu.Mu) else "nu")
            bodies.append(sub.body)
    return BinderIndex(tuple(kinds), tuple(bodies), index_of)


def domination_relation(phi: lmu.Lmu) -> frozenset[tuple[int, int]]:
    """Pairs (i, j), i != j, where binder j occurs inside the body of binder i."""
    binders = index_binders(phi)
    pairs: set[tuple[int, int]] = set()
    for i, body in enumerate(binders.bodies, start=1):
        for sub in lmu.subformulas(body):
            if isinstance(sub, (lmu.Mu, lmu.Nu)):
                pairs.add((i, binders.index_of[sub.var]))
    return frozenset(pairs)


def gamma_step(
    gamma: frozenset[tuple[int, str]],
    i: int,
    state: str,
    dominates: frozenset[tuple[int, int]],
) -> frozenset[tuple[int, str]]:
    """Re-entry update: add (i, state), dropping entries of binders i dominates."""
    kept = {(j, s) for (j, s) in gamma if (i, j) not in dominates}
    kept.add((i, state))
    return frozenset(kept)


def term_var(i: int, state: str) -> str:
    return f"x_{i}@{state}"


def translate(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    state: str,
    *,
    max_steps: int = 1_000_000,
) -> terms.Term:
    """Closed term whose value equals the formula's value at `state`."""
    return translate_all(phi, m, interp, (state,), max_steps=max_steps)[state]


def translate_all(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
    *,
    max_steps: int = 1_000_000,
) -> dict[str, terms.Term]:
    """Per-state closed terms, maximally shared across states.

    The per-state terms reuse identical subterm objects (one memo covers all
    requested states), which downstream evaluation caches exploit.
    """
    targets = m.states if states is None else states
    for state in targets:
        if state not in m.index:
            raise TranslationError(f"unknown state {state!r}")
    free = lmu.free_variables(phi)
    if free:
        raise TranslationError(f"formula must be closed; free: {sorted(free)}")
    phi = lmu.normalize_binders(phi)
    binders = index_binders(phi)
    dominates = domination_relation(phi)

    # Binder indices whose context entries a subformula can read: its own
    # free variables plus, transitively, those of every body it can expand
    # into. Restricting the memo key to these entries lets translations of
    # closed subformulas be shared across contexts and states.
    free_names = lmu.free_name_map(phi)

    def free_indices(node: lmu.Lmu) -> frozenset[int]:
        return frozenset(binders.index_of[v] for v in free_names[id(node)])

    dep = {i: free_indices(binders.bodies[i - 1]) for i in range(1, binders.count + 1)}
    reach = {i: set(dep[i]) for i in dep}
    changed = True
    while changed:
        changed = False
        for i in reach:
            merged = set(reach[i])
            for j in reach[i]:
                merged |= reach[j]
            if merged != reach[i]:
                reach[i] = merged
                changed = True
    relevant_cache: dict[lmu.Lmu, frozenset[int]] = {}

    def relevant(node: lmu.Lmu) -> frozenset[int]:
        rel = relevant_cache.get(node)
        if rel is None:
            base = free_indices(node)
            closure = set(base)
            for i in base:
                closure |= reach[i]
            rel = frozenset(closure)
            relevant_cache[node] = rel
        return rel

    memo: dict[tuple[lmu.Lmu, frozenset[tuple[int, str]], str], terms.Term] = {}
    steps = [0]

    def expand(i: int, gamma: frozenset[tuple[int, str]], s: str) -> terms.Term:
        body = walk(binders.bodies[i - 1], gamma, s)
        cls = terms.TMu if binders.kinds[i - 1] == "mu" else terms.TNu
        return cls(term_var(i, s), body)

    def modal_sum(d, sub: lmu.Lmu, gamma: frozenset[tuple[int, str]]) -> terms.Term:
        acc: terms.Term | None = None
        for target, weight in d.entries:
            piece = terms.TScalar(weight, walk(sub, gamma, target))
            acc = piece if acc is None else terms.TOPlus(acc, piece)
        assert acc is not None, "distributions have nonempty support"
        return acc

    def walk(node: lmu.Lmu, gamma: frozenset[tuple[int, str]], s: str) -> terms.Term:
        rel = relevant(node)
        key = (node, frozenset((i, t) for (i, t) in gamma if i in rel), s)
        hit = memo.get(key)
        if hit is not None:
            return hit
        steps[0] += 1
        if steps[0] > max_steps:
            raise TranslationError(f"translation exceeded {max_steps} steps")
        if isinstance(node, lmu.Var):
            i = binders.index_of[node.name]
            if (i, s) in gamma:
                result: terms.Term = terms.TVar(term_var(i, s))
            else:
                result = expand(i, gamma_step(gamma, i, s, dominates), s)
        elif isinstance(node, lmu.Prop):
            result = terms.tconst(interp.value(node.name, s))
        elif isinstance(node, lmu.CoProp):
            result = terms.tconst(Fraction(1) - interp.value(node.name, s))
        elif isinstance(node, lmu.Scalar):
            result = terms.TScalar(node.factor, walk(node.body, gamma, s))
        elif isinstance(node, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
            # the connective carries over to the term unchanged
            result = type(node)(walk(node.left, gamma, s), walk(node.right, gamma, s))
        elif isinstance(node, lmu.Diamond):
            dists = m.distributions(s)
            if not dists:
                result = terms.tconst(Fraction(0))
            else:
                acc: terms.Term | None = None
                for d in dists:
                    piece = modal_sum(d, node.body, gamma)
                    acc = piece if acc is None else terms.TJoin(acc, piece)
                result = acc
        elif isinstance(node, lmu.Box):
            dists = m.distributions(s)
            if not dists:
                result = terms.tconst(Fraction(1))
            else:
                acc = None
                for d in dists:
                    piece = modal_sum(d, node.body, gamma)
                    acc = piece if acc is None else terms.TMeet(acc, piece)
                result = acc
        elif isinstance(node, (lmu.Mu, lmu.Nu)):
            i = binders.index_of[node.var]
            body = walk(node.body, gamma | {(i, s)}, s)
            result = type(node)(term_var(i, s), body)
        else:
            raise TypeError(f"not a formula: {node!r}")
        memo[key] = result
        return result

    return {state: walk(phi, frozenset(), state) for state in targets}

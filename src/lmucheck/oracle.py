"""Independent ground truth at desk scale.

A direct PCTL model checker over finite models: boolean connectives by set
operations, path quantifiers by graph fixed points over the distributions,
probabilistic next by optimizing over the available distributions, and
probabilistic until by Howard policy iteration over memoryless deterministic
schedulers, each induced chain solved exactly (qualitative preprocessing
plus Gaussian elimination over rationals). Entirely separate from the
fixed-point evaluation pipeline it validates.

Also hosts Kleene iteration: approximating fixed points from 0 upward (mu)
and from 1 downward (nu), innermost first, with exact stabilization
detection, both for terms at a point and for formulas over a model. A
truncated loop of one polarity spoils the bound of the opposite polarity,
so results carry `lower_sound` (no truncated nu loop) and `upper_sound`
(no truncated mu loop); a stabilized loop is exact for its body.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping

from . import lmu, pctl, terms
from .model import Distribution, Interpretation, Pnts
from .rationals import format_rational

__all__ = [
    "OracleError",
    "require_boolean",
    "pctl_oracle",
    "next_prob",
    "until_prob_md",
    "prob_operator_values",
    "chain_of",
    "solve_chain_until",
    "solve_linear_system",
    "direct_value",
    "KleeneOutcome",
    "kleene_term",
    "kleene_lmu",
]

DEFAULT_KLEENE_BUDGET = 10_000


class OracleError(ValueError):
    """Unusable oracle input (non-boolean valuation, malformed chain)."""


# -- exact linear algebra -----------------------------------------------------


def solve_linear_system(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = b by Gaussian elimination over rationals; A must be square."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise OracleError("singular linear system")
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# -- graph fixed points -------------------------------------------------------


def _hits(m: Pnts, s: str, target, each_dist, each_succ) -> bool:
    """`s` has distributions and `each_dist` of them (`any` or `all`) has
    `each_succ` of its successors in the target."""
    dists = m.distributions(s)
    return bool(dists) and each_dist(each_succ(t in target for t in d.support) for d in dists)


def _attractor(m: Pnts, s1, s2, each_dist, each_succ) -> frozenset[str]:
    """The least set that contains s2 and every s1 state that `_hits` it."""
    found = set(s2)
    changed = True
    while changed:
        changed = False
        for s in m.states:
            if s not in found and s in s1 and _hits(m, s, found, each_dist, each_succ):
                found.add(s)
                changed = True
    return frozenset(found)


# -- chains and schedulers ----------------------------------------------------


def _expectation(d: Distribution, values: Mapping[str, Fraction]) -> Fraction:
    return sum((w * values[t] for t, w in d.entries), Fraction(0))


def chain_of(m: Pnts, choice: Mapping[str, int]) -> Pnts:
    """The chain induced by a scheduler: one distribution per non-deadlock state."""
    transitions = {s: (m.distributions(s)[choice[s]],) for s in choice}
    return Pnts(m.states, transitions)


def solve_chain_until(chain: Pnts, s1: frozenset[str], s2: frozenset[str]) -> dict[str, Fraction]:
    """Probability of reaching s2 through s1, per state, for a fixed chain.

    Value 1 on s2; value 0 on states that cannot reach s2 while staying in
    s1; the remaining states solve x_s = sum_t d(t) x_t exactly. Removing
    the zero states first makes the system nonsingular, and the solution is
    the least one, the probability of the until event.
    """
    for s in chain.states:
        dists = chain.distributions(s)
        if len(dists) > 1 and s in s1 and s not in s2:
            raise OracleError(f"state {s} has {len(dists)} distributions; not a chain")
    reach = _attractor(chain, s1, s2, any, any)
    unknown = [s for s in chain.states if s in reach and s not in s2]
    index = {s: i for i, s in enumerate(unknown)}
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for s in unknown:
        row = [Fraction(0)] * len(unknown)
        row[index[s]] = Fraction(1)
        b = Fraction(0)
        for t, w in chain.distributions(s)[0].entries:
            if t in s2:
                b += w
            elif t in index:
                row[index[t]] -= w
        matrix.append(row)
        rhs.append(b)
    solved = solve_linear_system(matrix, rhs) if unknown else []
    result: dict[str, Fraction] = {}
    for s in chain.states:
        if s in s2:
            result[s] = Fraction(1)
        elif s in index:
            result[s] = solved[index[s]]
        else:
            result[s] = Fraction(0)
    return result


def until_prob_md(
    m: Pnts, s1: frozenset[str], s2: frozenset[str], mode: str
) -> dict[str, Fraction]:
    """Extremal until probabilities over all schedulers, by policy iteration.

    Memoryless deterministic schedulers attain both extremes. Starting from
    distribution 0 everywhere, each round solves the induced chain exactly
    and switches every s1 state outside s2 to a distribution that does
    strictly better on those values; ties keep the current choice, so the
    rounds terminate and the result is deterministic. For `min`, s1 first
    shrinks to the states from which every scheduler reaches s2 with
    positive probability: the others have value 0, and without them every
    induced chain leaves s1 outside s2 with probability 1, so the min
    equations have one solution and the iteration cannot stall above it.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be max or min, got {mode!r}")
    if mode == "min":
        s1 = _attractor(m, s1, s2, all, any)
    better = operator.gt if mode == "max" else operator.lt
    choice = {s: 0 for s in m.states if m.distributions(s)}
    while True:
        values = solve_chain_until(chain_of(m, choice), s1, s2)
        switched = False
        for s in choice:
            if s not in s1 or s in s2:
                continue
            dists = m.distributions(s)
            best = _expectation(dists[choice[s]], values)
            for i, d in enumerate(dists):
                value = _expectation(d, values)
                if better(value, best):
                    choice[s], best, switched = i, value, True
        if not switched:
            return values


def next_prob(m: Pnts, target: frozenset[str], mode: str) -> dict[str, Fraction]:
    """Extremal one-step probability of hitting the target; 0 at deadlocks."""
    pick = max if mode == "max" else min
    out: dict[str, Fraction] = {}
    for s in m.states:
        dists = m.distributions(s)
        if not dists:
            out[s] = Fraction(0)
        else:
            out[s] = pick(
                sum((w for t, w in d.entries if t in target), Fraction(0)) for d in dists
            )
    return out


# -- PCTL ---------------------------------------------------------------------


def require_boolean(interp: Interpretation) -> None:
    """Refuse a valuation with a label other than 0 or 1, naming the first."""
    for p, per_state in interp.valuation.items():
        for s, v in per_state.items():
            if v.denominator != 1 or v.numerator not in (0, 1):
                raise OracleError(
                    f"non-boolean valuation {p}({s}) = {format_rational(v)}: "
                    "PCTL needs a boolean valuation"
                )


def pctl_oracle(phi: pctl.PctlState, m: Pnts, interp: Interpretation) -> dict[str, bool]:
    """Per-state truth values, computed directly from the path semantics."""
    require_boolean(interp)
    verdict = _sat(phi, m, interp)
    return {s: s in verdict for s in m.states}


def prob_operator_values(
    node: pctl.ProbExists | pctl.ProbForall, m: Pnts, interp: Interpretation
) -> dict[str, Fraction]:
    """Extremal probability of the operator's path formula, per state: max
    for `Pmax`, min for `Pmin`; the valuation must be boolean."""
    require_boolean(interp)
    return _prob_values(node, m, interp)


def _sat(node: pctl.PctlState, m: Pnts, interp: Interpretation) -> frozenset[str]:
    """The states that satisfy a PCTL state formula, on a boolean valuation."""
    if isinstance(node, pctl.TrueFormula):
        return frozenset(m.states)
    if isinstance(node, pctl.Prop):
        return frozenset(s for s in m.states if interp.value(node.name, s) == 1)
    if isinstance(node, pctl.Not):
        return frozenset(m.states) - _sat(node.body, m, interp)
    if isinstance(node, pctl.Or):
        return _sat(node.left, m, interp) | _sat(node.right, m, interp)
    if isinstance(node, (pctl.Exists, pctl.Forall)):
        each = any if isinstance(node, pctl.Exists) else all
        path = node.path
        if isinstance(path, pctl.Next):
            # a deadlocked state has one maximal path of length 1, falsifying next
            target = _sat(path.body, m, interp)
            return frozenset(s for s in m.states if _hits(m, s, target, each, each))
        return _attractor(m, _sat(path.left, m, interp), _sat(path.right, m, interp), each, each)
    if isinstance(node, (pctl.ProbExists, pctl.ProbForall)):
        probs = _prob_values(node, m, interp)
        if node.strict:
            return frozenset(s for s in m.states if probs[s] > node.bound)
        return frozenset(s for s in m.states if probs[s] >= node.bound)
    raise TypeError(f"not a PCTL state formula: {node!r}")


def _prob_values(
    node: pctl.ProbExists | pctl.ProbForall, m: Pnts, interp: Interpretation
) -> dict[str, Fraction]:
    """`prob_operator_values` without the guard, the operand sets from `_sat`."""
    mode = "max" if isinstance(node, pctl.ProbExists) else "min"
    path = node.path
    if isinstance(path, pctl.Next):
        return next_prob(m, _sat(path.body, m, interp), mode)
    return until_prob_md(m, _sat(path.left, m, interp), _sat(path.right, m, interp), mode)


# -- direct evaluation and Kleene iteration ------------------------------------


def direct_value(phi: lmu.Lmu, m: Pnts, interp: Interpretation) -> dict[str, Fraction]:
    """Value of a fixed-point-free formula, per state.

    The literals 1 and 0 are constants, not fixed points, so they may occur.
    Without binders Kleene iteration runs no loop, so its value is exact.
    """
    for node in lmu.subformulas(phi):
        if isinstance(node, (lmu.Mu, lmu.Nu)):
            raise OracleError("direct evaluation handles fixed-point-free formulas only")
        if isinstance(node, lmu.Var):
            raise OracleError(f"free variable {node.name} has no interpretation")
    return kleene_lmu(phi, m, interp).value


def _combine(node: lmu.Lmu, a: Fraction, b: Fraction) -> Fraction:
    if isinstance(node, lmu.Join):
        return max(a, b)
    if isinstance(node, lmu.Meet):
        return min(a, b)
    if isinstance(node, lmu.OPlus):
        return min(Fraction(1), a + b)
    return max(Fraction(0), a + b - 1)


def _modal(node: lmu.Lmu, dists, sub: Mapping[str, Fraction]) -> Fraction:
    expectations = [_expectation(d, sub) for d in dists]
    if isinstance(node, lmu.Diamond):
        return max(expectations, default=Fraction(0))
    return min(expectations, default=Fraction(1))


@dataclass(frozen=True)
class KleeneOutcome:
    """Final iterate plus how trustworthy it is as a bound.

    `stabilized` means every loop hit an exact fixed point, so the value is
    exact. `lower_sound` means the value cannot exceed the true value
    (soundness as a lower bound); `upper_sound` dually.
    """

    value: Fraction | dict[str, Fraction]
    stabilized: bool
    lower_sound: bool
    upper_sound: bool


def kleene_term(
    t: terms.Term,
    point: Mapping[str, Fraction],
    budget: int = DEFAULT_KLEENE_BUDGET,
    fuel: int = 200_000,
) -> KleeneOutcome:
    """Iterative approximation of a term's value at a point.

    A term is a formula, so this is `kleene_lmu` on a one-state model
    without transitions, the point valuing the term's free variables.
    """
    free = {name: {"s": v} for name, v in point.items()}
    out = _kleene(t, Pnts(("s",), {}), Interpretation({}), free, budget, fuel)
    return replace(out, value=out.value["s"])


def kleene_lmu(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    budget: int = DEFAULT_KLEENE_BUDGET,
    fuel: int = 200_000,
) -> KleeneOutcome:
    """Iterative approximation of a closed formula's value, per state."""
    return _kleene(phi, m, interp, {}, budget, fuel)


def _kleene(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    free: dict[str, dict[str, Fraction]],
    budget: int,
    fuel: int,
) -> KleeneOutcome:
    flags = {"stabilized": True, "lower_sound": True, "upper_sound": True}
    Valuation = dict  # state -> Fraction

    def walk(node: lmu.Lmu, env: dict[str, Valuation]) -> Valuation:
        nonlocal fuel
        if isinstance(node, lmu.Var):
            try:
                return env[node.name]
            except KeyError:
                raise OracleError(f"free variable {node.name!r}") from None
        if isinstance(node, lmu.Const):
            return {s: node.value for s in m.states}
        if isinstance(node, lmu.Prop):
            return {s: interp.value(node.name, s) for s in m.states}
        if isinstance(node, lmu.CoProp):
            return {s: 1 - interp.value(node.name, s) for s in m.states}
        if isinstance(node, lmu.Scalar):
            sub = walk(node.body, env)
            return {s: node.factor * sub[s] for s in m.states}
        if isinstance(node, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
            left, right = walk(node.left, env), walk(node.right, env)
            return {s: _combine(node, left[s], right[s]) for s in m.states}
        if isinstance(node, (lmu.Diamond, lmu.Box)):
            sub = walk(node.body, env)
            return {s: _modal(node, m.distributions(s), sub) for s in m.states}
        if isinstance(node, (lmu.Mu, lmu.Nu)):
            # the seed counts as the first of at most `budget` iterates
            is_mu = isinstance(node, lmu.Mu)
            current = {s: Fraction(0 if is_mu else 1) for s in m.states}
            for _ in range(budget - 1):
                if fuel <= 0:
                    break
                fuel -= 1
                nxt = walk(node.body, {**env, node.var: current})
                if nxt == current:
                    return current
                current = nxt
            flags["stabilized"] = False
            flags["upper_sound" if is_mu else "lower_sound"] = False
            return current
        raise TypeError(f"not a formula: {node!r}")

    try:
        value = walk(phi, free)
    finally:
        walk = None  # break the self-reference: the call's data is freed on exit
    return KleeneOutcome(value, **flags)

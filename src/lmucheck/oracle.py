"""Independent ground truth at desk scale.

A direct PCTL model checker over finite models: boolean connectives by set
operations, path quantifiers by graph fixed points on the underlying edge
relation, probabilistic next by optimizing over the available distributions,
and probabilistic until by enumerating every memoryless deterministic
scheduler and solving each induced chain exactly (qualitative preprocessing
plus Gaussian elimination over rationals). Deliberately brute force and
entirely separate from the fixed-point evaluation pipeline it validates.

Also hosts Kleene iteration: approximating fixed points from 0 upward (mu)
and from 1 downward (nu), innermost first, with exact stabilization
detection, both for terms at a point and for formulas over a model. A
truncated loop of one polarity spoils the bound of the opposite polarity,
so results carry `lower_sound` (no truncated nu loop) and `upper_sound`
(no truncated mu loop); a stabilized loop is exact for its body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping

from . import lmu, pctl, terms
from .model import Distribution, Interpretation, Pnts, underlying_graph

__all__ = [
    "OracleError",
    "SchedulerSpaceError",
    "pctl_oracle",
    "next_prob",
    "until_prob_md",
    "prob_operator_values",
    "md_schedulers",
    "chain_of",
    "solve_chain_until",
    "solve_linear_system",
    "direct_value",
    "KleeneOutcome",
    "kleene_term",
    "kleene_lmu",
]

DEFAULT_SCHEDULER_CAP = 100_000
DEFAULT_KLEENE_BUDGET = 10_000


class OracleError(ValueError):
    """Unusable oracle input (non-boolean valuation, malformed chain)."""


class SchedulerSpaceError(RuntimeError):
    """The scheduler space exceeds the configured cap; the oracle is desk scale."""


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


# -- chains and schedulers ----------------------------------------------------


def md_schedulers(m: Pnts, cap: int = DEFAULT_SCHEDULER_CAP) -> Iterator[dict[str, int]]:
    """All memoryless deterministic schedulers, in canonical product order."""
    choice_states = [s for s in m.states if not m.is_deadlock(s)]
    space = 1
    for s in choice_states:
        space *= len(m.distributions(s))
        if space > cap:
            raise SchedulerSpaceError(
                f"scheduler space exceeds cap {cap}; reduce the model"
            )
    for combo in itertools.product(*(range(len(m.distributions(s))) for s in choice_states)):
        yield dict(zip(choice_states, combo))


def chain_of(m: Pnts, choice: Mapping[str, int]) -> Pnts:
    """The chain induced by a scheduler: one distribution per non-deadlock state."""
    transitions = {s: (m.distributions(s)[choice[s]],) for s in choice}
    return Pnts(m.states, transitions)


def _chain_distribution(chain: Pnts, state: str) -> Distribution | None:
    dists = chain.distributions(state)
    if len(dists) > 1:
        raise OracleError(f"state {state} has {len(dists)} distributions; not a chain")
    return dists[0] if dists else None


def solve_chain_until(chain: Pnts, s1: frozenset[str], s2: frozenset[str]) -> dict[str, Fraction]:
    """Probability of reaching s2 through s1, per state, for a fixed chain.

    Value 1 on s2; value 0 on states that cannot reach s2 while staying in
    s1; the remaining states solve x_s = sum_t d(t) x_t exactly. Removing
    the zero states first makes the system nonsingular, and the solution is
    the least one, the probability of the until event.
    """
    reach: set[str] = set(s2)
    changed = True
    while changed:
        changed = False
        for s in chain.states:
            if s in reach or s not in s1:
                continue
            d = _chain_distribution(chain, s)
            if d and any(t in reach for t in d.support):
                reach.add(s)
                changed = True
    unknown = [s for s in chain.states if s in reach and s not in s2]
    index = {s: i for i, s in enumerate(unknown)}
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for s in unknown:
        d = _chain_distribution(chain, s)
        assert d is not None, "reaching states are not deadlocked"
        row = [Fraction(0)] * len(unknown)
        row[index[s]] = Fraction(1)
        b = Fraction(0)
        for t, w in d.entries:
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
    m: Pnts,
    s1: frozenset[str],
    s2: frozenset[str],
    mode: str,
    cap: int = DEFAULT_SCHEDULER_CAP,
) -> dict[str, Fraction]:
    """Extremal until probabilities over all memoryless deterministic schedulers."""
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be max or min, got {mode!r}")
    best: dict[str, Fraction] | None = None
    for choice in md_schedulers(m, cap):
        sol = solve_chain_until(chain_of(m, choice), s1, s2)
        if best is None:
            best = sol
        elif mode == "max":
            best = {s: max(best[s], sol[s]) for s in m.states}
        else:
            best = {s: min(best[s], sol[s]) for s in m.states}
    assert best is not None, "the empty scheduler always exists"
    return best


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


def pctl_oracle(
    phi: pctl.PctlState,
    m: Pnts,
    interp: Interpretation,
    cap: int = DEFAULT_SCHEDULER_CAP,
) -> dict[str, bool]:
    """Per-state truth values, computed directly from the path semantics."""
    if not interp.is_boolean():
        raise OracleError("PCTL needs a boolean valuation")
    succ = underlying_graph(m).successors

    def sat(node: pctl.PctlState) -> frozenset[str]:
        if isinstance(node, pctl.TrueFormula):
            return frozenset(m.states)
        if isinstance(node, pctl.Prop):
            return frozenset(s for s in m.states if interp.value(node.name, s) == 1)
        if isinstance(node, pctl.Not):
            return frozenset(m.states) - sat(node.body)
        if isinstance(node, pctl.Or):
            return sat(node.left) | sat(node.right)
        if isinstance(node, pctl.Exists):
            return _qualitative(node.path, exists=True)
        if isinstance(node, pctl.Forall):
            return _qualitative(node.path, exists=False)
        if isinstance(node, (pctl.ProbExists, pctl.ProbForall)):
            probs = prob_operator_values(node, m, interp, cap)
            if node.strict:
                return frozenset(s for s in m.states if probs[s] > node.bound)
            return frozenset(s for s in m.states if probs[s] >= node.bound)
        raise TypeError(f"not a PCTL state formula: {node!r}")

    def _qualitative(path: pctl.PctlPath, exists: bool) -> frozenset[str]:
        if isinstance(path, pctl.Next):
            target = sat(path.body)
            if exists:
                return frozenset(s for s in m.states if any(t in target for t in succ(s)))
            # a deadlocked state has one maximal path of length 1, falsifying next
            return frozenset(
                s for s in m.states if succ(s) and all(t in target for t in succ(s))
            )
        goal = sat(path.right)
        guard = sat(path.left)
        sat_set = set(goal)
        changed = True
        while changed:
            changed = False
            for s in m.states:
                if s in sat_set or s not in guard:
                    continue
                if not succ(s):
                    continue
                step = any if exists else all
                if step(t in sat_set for t in succ(s)):
                    sat_set.add(s)
                    changed = True
        return frozenset(sat_set)

    verdict = sat(phi)
    return {s: s in verdict for s in m.states}


def prob_operator_values(
    node: pctl.ProbExists | pctl.ProbForall,
    m: Pnts,
    interp: Interpretation,
    cap: int = DEFAULT_SCHEDULER_CAP,
) -> dict[str, Fraction]:
    """Extremal probability of the operator's path formula, per state: max
    for `Pmax`, min for `Pmin`, with the operand sat-sets from the oracle."""

    def sat(operand: pctl.PctlState) -> frozenset[str]:
        verdict = pctl_oracle(operand, m, interp, cap)
        return frozenset(s for s in m.states if verdict[s])

    mode = "max" if isinstance(node, pctl.ProbExists) else "min"
    path = node.path
    if isinstance(path, pctl.Next):
        return next_prob(m, sat(path.body), mode)
    return until_prob_md(m, sat(path.left), sat(path.right), mode, cap)


# -- direct evaluation and Kleene iteration ------------------------------------


def _expectation(d: Distribution, values: Mapping[str, Fraction]) -> Fraction:
    return sum((w * values[t] for t, w in d.entries), Fraction(0))


def direct_value(phi: lmu.Lmu, m: Pnts, interp: Interpretation) -> dict[str, Fraction]:
    """Value of a fixed-point-free formula, per state.

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


@dataclass
class _KleeneState:
    budget: int
    fuel: int
    stabilized: bool = True
    lower_sound: bool = True
    upper_sound: bool = True

    def run_loop(self, is_mu: bool, seed, body: Callable, eq: Callable):
        """Iterate body from the seed; returns the final iterate."""
        current = seed
        emitted = 1
        loop_stabilized = False
        while emitted < self.budget and self.fuel > 0:
            self.fuel -= 1
            nxt = body(current)
            emitted += 1
            if eq(nxt, current):
                loop_stabilized = True
                break
            current = nxt
        if not loop_stabilized:
            self.stabilized = False
            if is_mu:
                self.upper_sound = False
            else:
                self.lower_sound = False
        return current


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
    """Iterative approximation of a term's value at a point."""
    state = _KleeneState(budget=budget, fuel=fuel)

    def walk(node: terms.Term, env: dict[str, Fraction]) -> Fraction:
        if isinstance(node, lmu.Var):
            try:
                return env[node.name]
            except KeyError:
                raise OracleError(f"point does not cover {node.name!r}") from None
        if isinstance(node, lmu.Scalar):
            return node.factor * walk(node.body, env)
        if isinstance(node, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
            return _combine(node, walk(node.left, env), walk(node.right, env))
        if isinstance(node, (lmu.Mu, lmu.Nu)):
            is_mu = isinstance(node, lmu.Mu)
            seed = Fraction(0) if is_mu else Fraction(1)
            return state.run_loop(
                is_mu,
                seed,
                lambda v: walk(node.body, {**env, node.var: v}),
                lambda a, b: a == b,
            )
        raise TypeError(f"not a term: {node!r}")

    value = walk(t, dict(point))
    return KleeneOutcome(value, state.stabilized, state.lower_sound, state.upper_sound)


def kleene_lmu(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    budget: int = DEFAULT_KLEENE_BUDGET,
    fuel: int = 200_000,
) -> KleeneOutcome:
    """Iterative approximation of a closed formula's value, per state."""
    state = _KleeneState(budget=budget, fuel=fuel)
    Valuation = dict  # state -> Fraction

    def walk(node: lmu.Lmu, env: dict[str, Valuation]) -> Valuation:
        if isinstance(node, lmu.Var):
            try:
                return env[node.name]
            except KeyError:
                raise OracleError(f"free variable {node.name!r}") from None
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
            is_mu = isinstance(node, lmu.Mu)
            seed = {s: Fraction(0 if is_mu else 1) for s in m.states}
            return state.run_loop(
                is_mu,
                seed,
                lambda v: walk(node.body, {**env, node.var: v}),
                lambda a, b: a == b,
            )
        raise TypeError(f"not a formula: {node!r}")

    values = walk(phi, {})
    return KleeneOutcome(values, state.stabilized, state.lower_sound, state.upper_sound)

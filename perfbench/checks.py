"""Reference checks for operation outputs, by routes that share no code
with the translator or the evaluator.

Each check returns None when the output passes and a one-line reason when it
does not. Values arrive as exact fractions; every comparison is exact.
"""

from __future__ import annotations

import random
from fractions import Fraction

from lmucheck import lmu, pctl, terms
from lmucheck.model import Interpretation, Pnts
from lmucheck.oracle import direct_value, kleene_lmu, kleene_term, pctl_oracle, until_prob_md

import gen

KLEENE_BUDGET = 200
KLEENE_FUEL = 20_000
# nested loops that never stabilize multiply their iterate denominators, so
# term checks iterate less; truncated loops still give sound bounds
TERM_KLEENE_BUDGET = 25
TERM_KLEENE_FUEL = 500
P2_SAMPLES = 3


def _mismatch(values: dict[str, Fraction], expected: dict[str, Fraction], what: str) -> str | None:
    if set(values) != set(expected):
        return f"{what}: states {sorted(values)} != {sorted(expected)}"
    for s, v in expected.items():
        if values[s] != v:
            return f"{what}: {s} = {values[s]}, expected {v}"
    return None


def pctl_verdicts(phi: pctl.PctlState, m: Pnts, interp: Interpretation, values) -> str | None:
    """PCTL values are exactly the oracle's verdicts."""
    verdict = pctl_oracle(phi, m, interp)
    return _mismatch(values, {s: Fraction(int(ok)) for s, ok in verdict.items()}, "oracle")


def max_reach(m: Pnts, interp: Interpretation, values, complemented: bool) -> str | None:
    """`mu X.(P1 \\/ <>X)` on boolean labels is the maximal probability of
    reaching P1; its dual is one minus that."""
    goal = frozenset(s for s in m.states if interp.value(gen.PROPS[0], s) == 1)
    probs = until_prob_md(m, frozenset(m.states), goal, "max")
    if complemented:
        probs = {s: 1 - p for s, p in probs.items()}
    return _mismatch(values, probs, "until_prob_md")


def fixed_point_free(phi: lmu.Lmu, m: Pnts, interp: Interpretation, values) -> str | None:
    return _mismatch(values, direct_value(phi, m, interp), "direct_value")


def _ground(phi: lmu.Lmu, chain_vars: frozenset[str]) -> lmu.Lmu:
    """The chain body with every chain variable read as the proposition
    `V` and the constants 1 and 0 as propositions `One` and `Zero`."""
    if phi == lmu.ONE:
        return lmu.Prop("One")
    if phi == lmu.ZERO:
        return lmu.Prop("Zero")
    if isinstance(phi, lmu.Var):
        if phi.name not in chain_vars:
            raise ValueError(f"unexpected variable {phi.name}")
        return lmu.Prop("V")
    if isinstance(phi, lmu.Scalar):
        return lmu.Scalar(phi.factor, _ground(phi.body, chain_vars))
    if isinstance(phi, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
        return type(phi)(_ground(phi.left, chain_vars), _ground(phi.right, chain_vars))
    if isinstance(phi, (lmu.Diamond, lmu.Box)):
        return type(phi)(_ground(phi.body, chain_vars))
    if isinstance(phi, (lmu.Prop, lmu.CoProp)):
        return phi
    raise ValueError(f"binder inside a chain body: {lmu.render_lmu(phi)}")


def chain(phi: lmu.Lmu, m: Pnts, interp: Interpretation, values) -> str | None:
    """Properties of a binder chain `sigma_k Z_k ... sigma_1 Z_1. B`:

    - every value lies in [0, 1];
    - the fixed-point equation at the outermost binder: at the solution
      every chain variable equals the formula's own value v, so
      v = B(v, ..., v), evaluated by direct semantics;
    - for a single binder, Kleene iterates bound v from the binder's side.
    """
    for s, v in values.items():
        if not 0 <= v <= 1:
            return f"value {v} at {s} outside [0, 1]"
    binders = []
    body = phi
    while isinstance(body, (lmu.Mu, lmu.Nu)):
        binders.append(body)
        body = body.body
    labels = dict(interp.valuation)
    labels.update(
        V=dict(values),
        One={s: Fraction(1) for s in m.states},
        Zero={s: Fraction(0) for s in m.states},
    )
    grounded = _ground(body, frozenset(b.var for b in binders))
    again = direct_value(grounded, m, Interpretation(labels))
    problem = _mismatch(values, again, "fixed-point equation")
    if problem or len(binders) != 1:
        return problem
    outcome = kleene_lmu(phi, m, interp, budget=KLEENE_BUDGET, fuel=KLEENE_FUEL)
    return _kleene_bounds(outcome, values, "kleene_lmu")


def _kleene_bounds(outcome, values, what: str) -> str | None:
    approx = outcome.value if isinstance(outcome.value, dict) else {"": outcome.value}
    for s, k in approx.items():
        v = values[s]
        if outcome.stabilized and k != v:
            return f"{what}: stabilized at {k}, value {v}"
        if outcome.lower_sound and k > v:
            return f"{what}: lower bound {k} above value {v}"
        if outcome.upper_sound and k < v:
            return f"{what}: upper bound {k} below value {v}"
    return None


def dual_law(values, dual_values) -> str | None:
    """value(dual(phi)) = 1 - value(phi) at every state."""
    return _mismatch(dual_values, {s: 1 - v for s, v in values.items()}, "dual law")


# -- conditioned linear expressions -------------------------------------------


def _lin(expr, coords: list[Fraction]) -> Fraction:
    return sum((c * coords[s] for s, c in expr.coeffs), Fraction(expr.const))


def _holds(ineq, coords: list[Fraction]) -> bool:
    lhs = sum((c * coords[s] for s, c in ineq.coeffs), Fraction(ineq.const))
    return lhs > 0 if ineq.strict else lhs >= 0


def _satisfying(rng: random.Random, result, base: list[Fraction]) -> list[list[Fraction]]:
    """Points satisfying the conditions: box samples that pass, then convex
    mixes with the evaluation point (condition regions are convex)."""
    found = []
    for _ in range(4 * P2_SAMPLES):
        cand = [gen.rational(rng, 16) for _ in base]
        if all(_holds(i, cand) for i in result.conditions):
            found.append(cand)
            if len(found) == P2_SAMPLES:
                return found
    anchors = found + [base]
    while len(found) < P2_SAMPLES:
        lam = gen.rational(rng, 16)
        other = rng.choice(anchors)
        found.append([lam * a + (1 - lam) * b for a, b in zip(base, other)])
    return found


def conditioned(t: terms.TMu | terms.TNu, point: dict[str, Fraction], result, seed: int) -> str | None:
    """An `eval_term` result is a conditioned linear expression for t:

    (P1) its conditions hold at the point and the expression gives the value;
    (P2) at sampled points satisfying the conditions, the expression agrees
         with Kleene iteration of t (exactly where it stabilizes, as a bound
         otherwise);
    and the value solves the root binder's equation w = body(point, w), and
    Kleene iteration at the point brackets it.
    """
    names = list(result.variables)
    if sorted(point) != names:
        return f"variables {names} != point {sorted(point)}"
    base = [point[n] for n in names]
    if not all(_holds(i, base) for i in result.conditions):
        return "(P1) a condition fails at the evaluation point"
    if _lin(result.expr, base) != result.value or not 0 <= result.value <= 1:
        return f"(P1) expression gives {_lin(result.expr, base)}, value {result.value}"
    kleene = lambda term, at: kleene_term(term, at, budget=TERM_KLEENE_BUDGET, fuel=TERM_KLEENE_FUEL)
    problem = _kleene_bounds(kleene(t, point), {"": result.value}, "kleene_term")
    if problem:
        return problem
    residual = kleene(t.body, {**point, t.var: result.value})
    problem = _kleene_bounds(residual, {"": result.value}, "fixed-point residual")
    if problem:
        return problem
    for sample in _satisfying(random.Random(seed), result, base):
        at = dict(zip(names, sample))
        problem = _kleene_bounds(kleene(t, at), {"": _lin(result.expr, sample)}, "(P2)")
        if problem:
            return f"{problem} at {at}"
    return None

"""Seeded random corpora shared by the property and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from lmucheck import lmu, pctl, terms
from lmucheck.evaluator import EvalResult, cond_holds
from lmucheck.model import Distribution, Interpretation, Pnts

PROPS = ("P1", "P2")
MAX_DRAWS = 1000  # per state in `rand_model_exact`


def rand_rational(rng: random.Random, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def rand_model(
    rng: random.Random,
    max_states: int = 4,
    max_dists: int = 3,
    max_den: int = 8,
) -> Pnts:
    n = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(n))
    order = {s: i for i, s in enumerate(states)}
    transitions: dict[str, tuple[Distribution, ...]] = {}
    for s in states:
        dists: list[Distribution] = []
        for _ in range(rng.randint(0, max_dists)):
            d = rand_distribution(rng, states, order, min(n, max_den), max_den)
            if d not in dists:
                dists.append(d)
        if dists:
            transitions[s] = tuple(dists)
    return Pnts(states, transitions)


def rand_distribution(
    rng: random.Random, states, order, max_support: int, max_den: int
) -> Distribution:
    size = rng.randint(1, max_support)
    support = rng.sample(states, size)
    den = rng.randint(size, max_den)
    cuts = sorted(rng.sample(range(1, den), size - 1)) if size > 1 else []
    edges = [0] + cuts + [den]
    weights = {t: Fraction(b - a, den) for t, a, b in zip(support, edges, edges[1:])}
    return Distribution.from_dict(weights, order)


def rand_model_exact(
    rng: random.Random,
    n_states: int,
    n_dists: int = 2,
    max_support: int = 2,
    max_den: int = 8,
) -> Pnts:
    """Exactly `n_states` states, each with exactly `n_dists` distinct
    distributions of support at most `max_support`; ValueError when
    `MAX_DRAWS` draws for one state do not find that many."""
    states = tuple(f"s{i}" for i in range(n_states))
    order = {s: i for i, s in enumerate(states)}
    transitions: dict[str, tuple[Distribution, ...]] = {}
    for s in states:
        dists: list[Distribution] = []
        for _ in range(MAX_DRAWS):
            if len(dists) == n_dists:
                break
            d = rand_distribution(rng, states, order, min(n_states, max_support), max_den)
            if d not in dists:
                dists.append(d)
        if len(dists) < n_dists:
            raise ValueError(
                f"found {len(dists)} of n_dists={n_dists} distinct distributions "
                f"for n_states={n_states} in {MAX_DRAWS} draws"
            )
        transitions[s] = tuple(dists)
    return Pnts(states, transitions)


def term_dag(roots) -> list[terms.Term]:
    """Distinct term nodes reachable from the roots, each once."""
    seen: dict[int, terms.Term] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, a) for a in ("body", "left", "right") if hasattr(node, a))
    return list(seen.values())


def rand_bool_interp(rng: random.Random, m: Pnts, props=PROPS) -> Interpretation:
    return Interpretation(
        {p: {s: Fraction(rng.randint(0, 1)) for s in m.states} for p in props}
    )


def rand_interp(rng: random.Random, m: Pnts, props=PROPS, max_den: int = 8) -> Interpretation:
    return Interpretation(
        {p: {s: rand_rational(rng, max_den) for s in m.states} for p in props}
    )


def rand_pctl(rng: random.Random, depth: int, props=PROPS) -> pctl.PctlState:
    if depth <= 0:
        pick = rng.randrange(4)
        if pick == 0:
            return pctl.TRUE
        if pick == 1:
            return pctl.false()
        return pctl.Prop(rng.choice(props))

    def path() -> pctl.PctlPath:
        if rng.random() < 0.4:
            return pctl.Next(rand_pctl(rng, depth - 1, props))
        return pctl.Until(rand_pctl(rng, depth - 1, props), rand_pctl(rng, depth - 1, props))

    pick = rng.randrange(6)
    if pick == 0:
        return pctl.Not(rand_pctl(rng, depth - 1, props))
    if pick == 1:
        return pctl.Or(rand_pctl(rng, depth - 1, props), rand_pctl(rng, depth - 1, props))
    if pick == 2:
        return pctl.Exists(path())
    if pick == 3:
        return pctl.Forall(path())
    strict = rng.random() < 0.5
    bound = rand_rational(rng)  # includes the boundary values 0 and 1
    cls = pctl.ProbExists if pick == 4 else pctl.ProbForall
    return cls(strict, bound, path())


def rand_lmu(
    rng: random.Random,
    depth: int,
    env: tuple[str, ...] = (),
    props=PROPS,
    fixed_point_free: bool = False,
    counter: list[int] | None = None,
) -> lmu.Lmu:
    """Random closed formula (closed because leaves use only bound variables)."""
    if counter is None:
        counter = [0]
    leaves = ["prop", "coprop", "one", "zero"]
    if env:
        leaves += ["var", "var"]
    if depth <= 0:
        kind = rng.choice(leaves)
        if kind == "prop":
            return lmu.Prop(rng.choice(props))
        if kind == "coprop":
            return lmu.CoProp(rng.choice(props))
        if kind == "one":
            return lmu.ONE
        if kind == "zero":
            return lmu.ZERO
        return lmu.Var(rng.choice(env))

    choices = ["scalar", "join", "meet", "oplus", "otimes", "diamond", "box"]
    if not fixed_point_free:
        choices += ["mu", "nu"]
    kind = rng.choice(choices)
    if kind == "scalar":
        return lmu.Scalar(rand_rational(rng), rand_lmu(rng, depth - 1, env, props, fixed_point_free, counter))
    if kind in ("join", "meet", "oplus", "otimes"):
        cls = {"join": lmu.Join, "meet": lmu.Meet, "oplus": lmu.OPlus, "otimes": lmu.OTimes}[kind]
        return cls(
            rand_lmu(rng, depth - 1, env, props, fixed_point_free, counter),
            rand_lmu(rng, depth - 1, env, props, fixed_point_free, counter),
        )
    if kind in ("diamond", "box"):
        cls = lmu.Diamond if kind == "diamond" else lmu.Box
        return cls(rand_lmu(rng, depth - 1, env, props, fixed_point_free, counter))
    counter[0] += 1
    var = f"V{counter[0]}"
    cls = lmu.Mu if kind == "mu" else lmu.Nu
    return cls(var, rand_lmu(rng, depth - 1, env + (var,), props, fixed_point_free, counter))


def rand_term(
    rng: random.Random,
    depth: int,
    env: tuple[str, ...],
    binder_budget: int = 3,
    counter: list[int] | None = None,
) -> terms.Term:
    if counter is None:
        counter = [0]
    if depth <= 0:
        if env and rng.random() < 0.7:
            return terms.TVar(rng.choice(env))
        return terms.tconst(rand_rational(rng))
    choices = ["scalar", "join", "meet", "oplus", "otimes", "leaf"]
    if binder_budget > 0:
        choices += ["mu", "nu"]
    kind = rng.choice(choices)
    if kind == "leaf":
        if env and rng.random() < 0.7:
            return terms.TVar(rng.choice(env))
        return terms.tconst(rand_rational(rng))
    if kind == "scalar":
        return terms.TScalar(
            rand_rational(rng), rand_term(rng, depth - 1, env, binder_budget, counter)
        )
    if kind in ("join", "meet", "oplus", "otimes"):
        cls = {
            "join": terms.TJoin,
            "meet": terms.TMeet,
            "oplus": terms.TOPlus,
            "otimes": terms.TOTimes,
        }[kind]
        return cls(
            rand_term(rng, depth - 1, env, binder_budget, counter),
            rand_term(rng, depth - 1, env, binder_budget, counter),
        )
    counter[0] += 1
    var = f"b{counter[0]}"
    cls = terms.TMu if kind == "mu" else terms.TNu
    return cls(var, rand_term(rng, depth - 1, env + (var,), binder_budget - 1, counter))


def rand_binder_term(
    rng: random.Random, depth: int = 3, free_vars: tuple[str, ...] = ("x0", "x1")
) -> terms.TMu | terms.TNu:
    """Random term whose root is a fixed point over a fresh variable."""
    counter = [0]
    var = "w0"
    body = rand_term(rng, depth, free_vars + (var,), binder_budget=2, counter=counter)
    cls = terms.TMu if rng.random() < 0.5 else terms.TNu
    return cls(var, body)


def rand_point(rng: random.Random, names, max_den: int = 8) -> dict[str, Fraction]:
    return {name: rand_rational(rng, max_den) for name in names}


def satisfying_samples(
    rng: random.Random, result: EvalResult, point: dict[str, Fraction], want: int = 10
) -> list[dict[str, Fraction]]:
    """Points satisfying the result's conditions, per the sampling protocol:
    uniform candidates in the box, then convex mixes of accepted samples
    (and the evaluation point, which satisfies the conditions) with the
    evaluation point. Condition regions are convex, so mixes stay inside."""
    names = result.variables
    if not names:
        return []
    base = [point[n] for n in names]
    accepted: list[list[Fraction]] = []
    for _ in range(4 * want):
        cand = [rand_rational(rng, 16) for _ in names]
        if cond_holds(result.conditions, cand):
            accepted.append(cand)
        if len(accepted) >= want:
            break
    samples = list(accepted)
    anchors = accepted + [base]
    while len(samples) < want:
        lam = rand_rational(rng, 16)
        other = rng.choice(anchors)
        samples.append([lam * a + (1 - lam) * b for a, b in zip(base, other)])
    return [dict(zip(names, s)) for s in samples[:want]]

"""Seeded input generators for the benchmark.

Everything here is a pure function of a `random.Random`, so one workload
seed fixes every model, formula, term and point. Formulas and terms are
built as lmucheck syntax trees (the references read the trees) and handed to
the program only as rendered strings; models are handed over only as model
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from lmucheck import lmu, pctl, terms
from lmucheck.model import Distribution, Interpretation, Pnts

PROPS = ("P1", "P2")


def rational(rng: random.Random, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


@dataclass(frozen=True)
class Model:
    """A model with exactly `len(states)` states and a fixed number of
    distinct distributions per state, plus its labelling."""

    states: tuple[str, ...]
    dists: dict[str, tuple[tuple[tuple[str, Fraction], ...], ...]]
    labels: dict[str, dict[str, Fraction]]

    def text(self) -> str:
        """The model file."""
        lines = ["state " + " ".join(self.states)]
        for p, per_state in self.labels.items():
            body = ", ".join(f"{s}: {v}" for s, v in per_state.items())
            lines.append(f"prop {p} = {{ {body} }}")
        for s in self.states:
            for d in self.dists[s]:
                body = ", ".join(f"{t}: {w}" for t, w in d)
                lines.append(f"trans {s} -> {{ {body} }}")
        return "\n".join(lines) + "\n"

    def pnts(self) -> tuple[Pnts, Interpretation]:
        """The same model built directly, without the model-file parser."""
        transitions = {s: tuple(Distribution(d) for d in ds) for s, ds in self.dists.items()}
        return Pnts(self.states, transitions), Interpretation(self.labels)


def model(
    rng: random.Random,
    n: int,
    dists_per_state: int,
    boolean: bool,
    max_support: int = 3,
    max_den: int = 8,
) -> Model:
    """Exactly n states, each with exactly `dists_per_state` distinct
    distributions of support at most `max_support` and weights with
    denominators at most `max_den`."""
    if dists_per_state > 1 and n < 2:
        raise ValueError("distinct distributions need at least two states")
    states = tuple(f"s{i}" for i in range(n))
    dists: dict[str, tuple] = {}
    for s in states:
        picked: list[tuple[tuple[str, Fraction], ...]] = []
        while len(picked) < dists_per_state:
            size = rng.randint(1, min(n, max_support))
            support = sorted(rng.sample(range(n), size))
            den = rng.randint(size, max_den)
            cuts = sorted(rng.sample(range(1, den), size - 1))
            edges = [0, *cuts, den]
            d = tuple(
                (states[t], Fraction(b - a, den)) for t, a, b in zip(support, edges, edges[1:])
            )
            if d not in picked:
                picked.append(d)
        dists[s] = tuple(picked)
    if boolean:
        labels = {p: {s: Fraction(rng.randint(0, 1)) for s in states} for p in PROPS}
    else:
        labels = {p: {s: rational(rng, max_den) for s in states} for p in PROPS}
    return Model(states, dists, labels)


# -- PCTL ---------------------------------------------------------------------


def pctl_atom(rng: random.Random) -> pctl.PctlState:
    return pctl.Prop(rng.choice(PROPS))


def pctl_family(family: str, rng: random.Random) -> pctl.PctlState:
    """One of the four ladder families over the two propositions."""
    p1, p2 = (pctl.Prop(p) for p in PROPS)
    if family == "EU":
        return pctl.Exists(pctl.Until(p1, p2))
    if family == "AU":
        return pctl.Forall(pctl.Until(p1, p2))
    if family == "PmaxU":
        return pctl.ProbExists(False, Fraction(rng.randint(1, 7), 8), pctl.Until(p1, p2))
    if family == "PminX":
        return pctl.ProbForall(True, Fraction(rng.randint(1, 7), 8), pctl.Next(p1))
    raise ValueError(f"unknown PCTL family {family!r}")


def pctl_nested(rng: random.Random, depth: int) -> pctl.PctlState:
    """Random PCTL formula of nesting depth at most `depth`."""
    if depth <= 0:
        return pctl.TRUE if rng.random() < 0.15 else pctl_atom(rng)

    def sub() -> pctl.PctlState:
        return pctl_nested(rng, depth - 1)

    def path() -> pctl.PctlPath:
        return pctl.Next(sub()) if rng.random() < 0.4 else pctl.Until(sub(), sub())

    pick = rng.randrange(6)
    if pick == 0:
        return pctl.Not(sub())
    if pick == 1:
        return pctl.Or(sub(), sub())
    if pick == 2:
        return pctl.Exists(path())
    if pick == 3:
        return pctl.Forall(path())
    cls = pctl.ProbExists if pick == 4 else pctl.ProbForall
    return cls(rng.random() < 0.5, Fraction(rng.randint(0, 8), 8), path())


def pctl_next(rng: random.Random, quantifiers: tuple[int, ...]) -> pctl.PctlState:
    """Nested next-step quantifiers over a proposition, outermost first:
    0 is `E X`, 1 `A X`, 2 `Pmax>~q [X ...]`, 3 `Pmin>~q [X ...]`. Every
    path is `X`, so the oracle needs no scheduler enumeration; the caller
    picks the quantifiers, so the mix of shapes (and of costs) is fixed."""
    if not quantifiers:
        return pctl_atom(rng)
    body = pctl.Next(pctl_next(rng, quantifiers[1:]))
    pick = quantifiers[0]
    if pick == 0:
        return pctl.Exists(body)
    if pick == 1:
        return pctl.Forall(body)
    cls = pctl.ProbExists if pick == 2 else pctl.ProbForall
    return cls(rng.random() < 0.5, Fraction(rng.randint(1, 7), 8), body)


# -- mu-calculus --------------------------------------------------------------


def lmu_body(rng: random.Random, depth: int, env: tuple[str, ...]) -> lmu.Lmu:
    """Fixed-point-free formula over the propositions and the variables in
    `env`; every variable in `env` occurs at least once when depth allows."""
    if depth <= 0:
        if env and rng.random() < 0.6:
            return lmu.Var(rng.choice(env))
        p = rng.choice(PROPS)
        return lmu.Prop(p) if rng.random() < 0.7 else lmu.CoProp(p)
    kind = rng.choice(("join", "meet", "oplus", "otimes", "diamond", "box", "scalar"))
    if kind in ("diamond", "box"):
        cls = lmu.Diamond if kind == "diamond" else lmu.Box
        return cls(lmu_body(rng, depth - 1, env))
    if kind == "scalar":
        return lmu.Scalar(Fraction(rng.randint(1, 7), 8), lmu_body(rng, depth - 1, env))
    cls = {"join": lmu.Join, "meet": lmu.Meet, "oplus": lmu.OPlus, "otimes": lmu.OTimes}[kind]
    return cls(lmu_body(rng, depth - 1, env), lmu_body(rng, depth - 1, env))


def lmu_shallow(rng: random.Random, depth: int) -> lmu.Lmu:
    """Fixed-point-free formula of fixed shape `op(M(...), a)`, nested
    `depth` times, with random connectives, modalities and literals."""
    p = rng.choice(PROPS)
    literal = lmu.Prop(p) if rng.random() < 0.5 else lmu.CoProp(p)
    if depth <= 0:
        return literal
    modal = (lmu.Diamond, lmu.Box)[rng.randrange(2)](lmu_shallow(rng, depth - 1))
    return (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)[rng.randrange(4)](modal, literal)


CHAIN_VARS = ("X", "Y", "Z")


def lmu_chain(rng: random.Random, alternation: int, body_depth: int) -> lmu.Lmu:
    """`mu X. B`, `nu Y. mu X. B` or `mu Z. nu Y. mu X. B`: a chain of
    `alternation` binders of alternating kind over a fixed-point-free body B
    that mentions every chain variable under a modality."""
    env = CHAIN_VARS[:alternation]
    parts = [lmu.Diamond(lmu.Var(v)) if rng.random() < 0.5 else lmu.Box(lmu.Var(v)) for v in env]
    body = lmu_body(rng, body_depth, env)
    for part in parts:
        cls = (lmu.Join, lmu.Meet, lmu.OPlus)[rng.randrange(3)]
        body = cls(body, part)
    for i, v in enumerate(env):
        body = (lmu.Mu if i % 2 == 0 else lmu.Nu)(v, body)
    return body


def lmu_reach() -> lmu.Lmu:
    """`mu X. (P1 \\/ <>X)`: maximal reachability of P1 on boolean labels."""
    return lmu.Mu("X", lmu.Join(lmu.Prop(PROPS[0]), lmu.Diamond(lmu.Var("X"))))


# -- terms --------------------------------------------------------------------


def term(
    rng: random.Random, depth: int, env: tuple[str, ...], binders: int, counter: list[int]
) -> terms.Term:
    """Random open term over `env`, with at most `binders` nested binders."""
    if depth <= 0:
        if env and rng.random() < 0.75:
            return terms.TVar(rng.choice(env))
        return terms.tconst(rational(rng, 8))
    choices = ["scalar", "join", "meet", "oplus", "otimes"] + ["bind"] * (binders > 0)
    kind = rng.choice(choices)
    if kind == "scalar":
        return terms.TScalar(rational(rng, 8), term(rng, depth - 1, env, binders, counter))
    if kind == "bind":
        counter[0] += 1
        var = f"b{counter[0]}"
        cls = terms.TMu if rng.random() < 0.5 else terms.TNu
        return cls(var, term(rng, depth - 1, env + (var,), binders - 1, counter))
    cls = {"join": terms.TJoin, "meet": terms.TMeet, "oplus": terms.TOPlus, "otimes": terms.TOTimes}[kind]
    return cls(
        term(rng, depth - 1, env, binders, counter), term(rng, depth - 1, env, binders, counter)
    )


def binder_term(rng: random.Random, n_free: int, depth: int) -> terms.TMu | terms.TNu:
    """Open term whose root is a fixed point, with `n_free` free variables
    and at most three nested binders, the root included."""
    free = tuple(f"x{i}" for i in range(n_free))
    body = term(rng, depth, free + ("w",), 2, [0])
    return (terms.TMu if rng.random() < 0.5 else terms.TNu)("w", body)


def point(rng: random.Random, names, max_den: int = 8) -> dict[str, Fraction]:
    return {name: rational(rng, max_den) for name in names}

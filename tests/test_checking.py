import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from generators import rand_bool_interp, rand_interp, rand_lmu, rand_model, rand_model_exact
from lmucheck import lmu, pctl
from lmucheck.checking import model_check_lmu, model_check_pctl
from lmucheck.encoder import encode_pctl
from lmucheck.evaluator import TermEvaluator, eval_term
from lmucheck.model import Distribution, Interpretation, Pnts, parse_model, validate_model
from lmucheck.oracle import OracleError, kleene_lmu, kleene_term, pctl_oracle
from lmucheck.parser import parse_lmu, parse_pctl, parse_term
from lmucheck.translator import BooleanFragment, TranslationError, translate_all

CONNECTIVES = [lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes]
MODALITIES = [lmu.Diamond, lmu.Box]
LITERALS = [lmu.Prop("P1"), lmu.CoProp("P1"), lmu.Prop("P2"), lmu.CoProp("P2")]


def fixed_point(rng: random.Random, var: str, other: lmu.Lmu) -> lmu.Lmu:
    """`mu`/`nu var. (q*<>var op other)`, `[]` for `<>` at random, with q
    in (0, 1]."""
    step = lmu.Scalar(Fraction(rng.randint(1, 4), 4), rng.choice(MODALITIES)(lmu.Var(var)))
    return rng.choice([lmu.Mu, lmu.Nu])(var, rng.choice(CONNECTIVES)(step, other))


def nested_closed_fixed_points(rng: random.Random) -> lmu.Lmu:
    """A fixed point whose body puts closed fixed points under a modality
    and under a connective; one of the inner binders may shadow the outer."""
    inner = [fixed_point(rng, v, rng.choice(LITERALS)) for v in rng.sample("ZWV", 2)]
    other = rng.choice(CONNECTIVES)(rng.choice(MODALITIES)(inner[0]), inner[1])
    return fixed_point(rng, "Z", other)


def test_shared_evaluation_matches_isolated_evaluation():
    # the pipeline evaluates closed subformulas inside its one translation
    # walk and shares one evaluator and one memo across states; values must
    # equal fresh per-state translation of the whole formula and evaluation
    rng = random.Random(112358)
    for case in range(120):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3) if case < 40 else nested_closed_fixed_points(rng)
        shared = model_check_lmu(phi, m, interp).values
        for s in m.states:
            reference = eval_term(translate_all(phi, m, interp, (s,))[s], {}).value
            assert shared[s] == reference
            # one requested state: strata are evaluated only where reached
            assert model_check_lmu(phi, m, interp, states=(s,)).values == {s: reference}


def chain(rng: random.Random, names: str) -> lmu.Lmu:
    """`mu X. B`, `nu Y. mu X. B` or `mu Z. nu Y. mu X. B` for the names
    "X", "YX" or "ZYX": B joins a literal with `literal /\\ M v` or
    `literal (.) M v`, M a modality, for every chain variable v."""
    body = rng.choice(LITERALS)
    for v in names:
        step = rng.choice(MODALITIES)(lmu.Var(v))
        part = rng.choice((lmu.Meet, lmu.OTimes))(rng.choice(LITERALS), step)
        body = rng.choice((lmu.Join, lmu.OPlus))(body, part)
    for v in reversed(names):
        body = (lmu.Mu if v in "XZ" else lmu.Nu)(v, body)
    return body


def until(rng: random.Random, left: pctl.PctlState, right: pctl.PctlState) -> pctl.PctlState:
    """`E`, `A`, `Pmax` or `Pmin` of `left U right`."""
    path = pctl.Until(left, right)
    pick = rng.randrange(4)
    if pick < 2:
        return (pctl.Exists, pctl.Forall)[pick](path)
    bound = Fraction(rng.randint(1, 3), 4)
    return (pctl.ProbExists, pctl.ProbForall)[pick - 2](rng.random() < 0.5, bound, path)


def test_solved_fixed_points_keep_every_value():
    # a check reads each closed fixed point it has solved at a state as
    # that value wherever a later state's term would re-expand it, so what
    # it reuses depends on the order of the requested states; in every
    # order the values must be those of the unstratified per-state terms.
    # The sizes keep the reference, which re-expands everything, cheap.
    rng = random.Random("solved fixed points")
    corpus = []
    shapes = (("X", (3, 4), 2, 6), ("YX", (3, 4), 1, 6), ("ZYX", (3,), 1, 4))
    for names, sizes, n_dists, cases in shapes:
        for _ in range(cases):
            m = rand_model_exact(rng, rng.choice(sizes), n_dists=n_dists)
            corpus.append((chain(rng, names), m, rand_interp(rng, m)))
    p1, p2 = pctl.Prop("P1"), pctl.Prop("P2")
    for _ in range(6):
        m = rand_model_exact(rng, rng.choice((3, 4)))
        inner = until(rng, p1, p2)
        phi = until(rng, p1, inner) if rng.random() < 0.5 else until(rng, inner, p2)
        corpus.append((encode_pctl(phi), m, rand_bool_interp(rng, m)))
    for phi, m, interp in corpus:
        reference = {s: eval_term(t, {}).value for s, t in translate_all(phi, m, interp).items()}
        assert model_check_lmu(phi, m, interp).values == reference
        for order in (m.states[::-1], *((s,) for s in m.states)):
            values = model_check_lmu(phi, m, interp, order).values
            assert list(values.items()) == [(s, reference[s]) for s in order]


def qualitative(rng: random.Random, depth: int) -> pctl.PctlState:
    """A random PCTL formula of `E`/`A` next and until, `!` and `|`."""
    if depth == 0:
        return rng.choice((pctl.TRUE, pctl.Prop("P1"), pctl.Prop("P2")))
    pick = rng.randrange(4)
    if pick == 0:
        return pctl.Not(qualitative(rng, depth - 1))
    if pick == 1:
        return pctl.Or(qualitative(rng, depth - 1), qualitative(rng, depth - 1))
    if rng.random() < 0.4:
        path = pctl.Next(qualitative(rng, depth - 1))
    else:
        path = pctl.Until(qualitative(rng, depth - 1), qualitative(rng, depth - 1))
    return (pctl.Exists, pctl.Forall)[pick - 2](path)


def probabilistic(rng: random.Random) -> pctl.PctlState:
    """`Pmax`/`Pmin` of next or until over qualitative operands, alone or as
    the goal of an `E`/`A` until."""
    if rng.random() < 0.3:
        path = pctl.Next(qualitative(rng, 1))
    else:
        path = pctl.Until(qualitative(rng, 1), qualitative(rng, 1))
    bound = Fraction(rng.randint(1, 3), 4)
    phi = rng.choice((pctl.ProbExists, pctl.ProbForall))(rng.random() < 0.5, bound, path)
    if rng.random() < 0.5:
        return phi
    return rng.choice((pctl.Exists, pctl.Forall))(pctl.Until(qualitative(rng, 0), phi))


# boolean-fragment formulas: alternation, thresholds with the variable on
# either side, `\/`/`/\` of steps under a threshold, constants, a closed
# binder under a step
FRAGMENT = [
    "nu Y. mu X. ((P1 /\\ mu Z. (Z (+) <>Y)) \\/ mu W. (W (+) []X))",
    "mu X. (P2 \\/ (P1 /\\ nu Z. (Z (.) []X)))",
    "nu X. (~P2 /\\ mu Z. (<>X (+) Z))",
    "mu X. (P1 \\/ mu Z. (Z (+) ([]X /\\ <>1)))",
    "nu Y. (P1 /\\ nu Z. (Z (.) (<>Y \\/ []P2)))",
    "mu X. (0 \\/ (1 /\\ nu Z. (Z (.) <>(P2 \\/ X))))",
    "nu X. mu Y. ((~P1 /\\ mu Z. (Z (+) []Y)) \\/ (P2 /\\ nu V. (V (.) <>X)))",
    "mu X. (P2 \\/ mu Z. (Z (+) <>(X /\\ nu Y. (~P1 \\/ nu V. (V (.) []Y)))))",
]
# formulas outside the fragment around fragment binders, closed or open
MIXED = [
    "mu X. (P1 (+) 1/2*mu Z. (Z (+) <>X))",
    "nu X. (P2 (.) nu Z. (Z (.) []X))",
    "nu Y. (P2 /\\ mu X. (X (+) []Y)) (+) 1/4*1",
]


def test_boolean_fragment_matches_every_route():
    # a check decides a boolean-fragment formula as a state set and runs
    # no loop, at the root or at a closed binder the walk reaches; its
    # values must be those of the unstratified per-state terms, of Kleene
    # iteration where the root is decided and, for PCTL, of the oracle. One
    # state of each model is a deadlock, where `<>` is 0 and `[]` is 1.
    rng = random.Random("boolean fragment")
    corpus = [(parse_lmu(text), None) for text in FRAGMENT + MIXED]
    qualitatives = (qualitative(rng, rng.choice((2, 3))) for _ in range(60))
    corpus += [(encode_pctl(phi), phi) for phi in qualitatives]
    corpus += [(encode_pctl(phi), phi) for phi in (probabilistic(rng) for _ in range(24))]
    decided_roots = 0
    for phi, source in corpus:
        m = rand_model_exact(rng, rng.choice((3, 4)), n_dists=rng.choice((1, 2)))
        dead = rng.choice(m.states)
        m = Pnts(m.states, {s: d for s, d in m.transitions.items() if s != dead})
        interp = rand_bool_interp(rng, m)
        decided = BooleanFragment(m, interp).states(phi)
        out = model_check_lmu(phi, m, interp)
        reference = {s: eval_term(t, {}).value for s, t in translate_all(phi, m, interp).items()}
        assert out.values == reference, lmu.render_lmu(phi)
        if decided is not None:
            decided_roots += 1
            assert out.iterations == 0
            assert decided == {s for s, v in reference.items() if v == 1}
            kleene = kleene_lmu(phi, m, interp)
            assert kleene.stabilized and kleene.value == reference
        if source is not None:
            verdict = pctl_oracle(source, m, interp)
            assert reference == {s: Fraction(verdict[s]) for s in m.states}
    # every qualitative formula and every next-step probability bound is in
    # the fragment; a bounded until or a fractional scalar is not
    pctl_roots = sum(source is not None and not bounds_an_until(source) for _, source in corpus)
    assert decided_roots == len(FRAGMENT) + pctl_roots


def bounds_an_until(phi: pctl.PctlState) -> bool:
    """Whether some `Pmax`/`Pmin` in phi has an until directly under it."""
    if isinstance(phi, pctl.Not):
        return bounds_an_until(phi.body)
    if isinstance(phi, pctl.Or):
        return bounds_an_until(phi.left) or bounds_an_until(phi.right)
    if isinstance(phi, (pctl.Exists, pctl.Forall, pctl.ProbExists, pctl.ProbForall)):
        path = phi.path
        if isinstance(path, pctl.Next):
            return bounds_an_until(path.body)
        if isinstance(phi, (pctl.ProbExists, pctl.ProbForall)):
            return True
        return bounds_an_until(path.left) or bounds_an_until(path.right)
    return False


# s0's first distribution puts 1/2 on P1 and 3/8 on P2, s1's puts 3/8 on P1
# and 1/4 on P2, and s3 is a deadlock: `> q` and `>= q` differ at q = 3/8,
# 1/4 and 1/2, and `<>` is 0 and `[]` is 1 at s3
THRESHOLD_MODEL = (
    "state s0 s1 s2 s3\n"
    "prop P1 = { s1: 1, s2: 1 }\n"
    "prop P2 = { s2: 1, s3: 1 }\n"
    "trans s0 -> { s0: 1/4, s1: 3/8, s2: 1/8, s3: 1/4 }\n"
    "trans s0 -> { s1: 1/4, s3: 3/4 }\n"
    "trans s1 -> { s0: 5/8, s2: 1/4, s1: 1/8 }\n"
    "trans s2 -> { s2: 1/2, s0: 1/2 }\n"
)
NEXT_THRESHOLDS = [
    *(f"{op}{rel}{q} [X P1]" for op in ("Pmax", "Pmin") for rel in (">", ">=") for q in ("1/4", "3/8", "1/2")),
    "Pmax>=1/4 [X P2 & !P1]",
    "Pmin>=1/2 [X !P2]",
    "Pmax>=3/8 [X Pmin>1/4 [X P1]]",
    "Pmin>1/4 [X E X P2]",
    "Pmax>1/2 [X A [P1 U Pmin>=1/2 [X P2]]]",
    "E [P1 U Pmax>=1/4 [X P2]]",
    "A [!P2 U Pmax>1/4 [X P2]] | Pmin>=3/8 [X P1]",
]
# the macros as lmu writes them, with the constant on either side
NEXT_MACROS = [
    "mu X. (X (+) (<>P1 (.) 5/8*1))",
    "mu X. ((3/4*1 (.) []P1) (+) X)",
    "nu X. (X (.) (5/8*1 (+) []P1))",
    "nu X. (((<>P2 \\/ []P1) (+) 3/4*1) (.) X)",
    "mu X. (X (+) (1/2*1 (.) (<>P1 /\\ []~P2)))",
    "nu Y. (P1 /\\ nu X. (X (.) (1/2*1 (+) <>Y)))",
]


def test_next_step_thresholds_are_decided_as_sets():
    # a next-step bound other than `> 0` and `>= 1` is decided as a state
    # set from each distribution's mass on the argument's set; where that
    # mass equals the bound, `>` and `>=` differ, and at the deadlock s3
    # `<>` gives 0 and `[]` gives 1
    m, interp = parse_model(THRESHOLD_MODEL)
    corpus = [(encode_pctl(parse_pctl(text)), parse_pctl(text)) for text in NEXT_THRESHOLDS]
    corpus += [(parse_lmu(text), None) for text in NEXT_MACROS]
    for phi, source in corpus:
        decided = BooleanFragment(m, interp).states(phi)
        assert decided is not None, lmu.render_lmu(phi)
        out = model_check_lmu(phi, m, interp)
        reference = {s: eval_term(t, {}).value for s, t in translate_all(phi, m, interp).items()}
        assert out.values == reference and out.iterations == 0
        assert decided == {s for s, v in reference.items() if v == 1}, lmu.render_lmu(phi)
        if source is not None:
            assert decided == {s for s, v in pctl_oracle(source, m, interp).items() if v}
    # a bounded until stays outside the fragment, and the next-step bound
    # inside it is a closed binder the walk decides as a set
    source = parse_pctl("Pmax>=1/2 [P1 U Pmin>1/4 [X P2]]")
    assert BooleanFragment(m, interp).states(encode_pctl(source)) is None
    verdict = pctl_oracle(source, m, interp)
    assert model_check_pctl(source, m, interp).values == {s: Fraction(v) for s, v in verdict.items()}


def test_fractional_labels_keep_the_term_route():
    # the fragment takes a proposition only where its labels are 0 or 1 at
    # every state: an `E`-until shape with a fractional goal goes through
    # the term route and runs loops, while a fractional proposition outside
    # a closed fragment binder leaves that binder to the pass
    m, interp = parse_model(
        "state s0 s1 s2\n"
        "prop P1 = { s0: 1, s1: 1 }\n"
        "prop G = { s2: 1 }\n"
        "prop H = { s2: 1/2 }\n"
        "prop Q = { s0: 1/3, s2: 2/3 }\n"
        "trans s0 -> { s0: 1/2, s1: 1/2 }\n"
        "trans s1 -> { s0: 1/2, s2: 1/2 }\n"
        "trans s2 -> { s2: 1 }\n"
    )
    until = "mu T. ({} \\/ (P1 /\\ mu X. (X (+) <>T)))"
    for text, loops in ((until.format("H"), True), ("Q \\/ " + until.format("G"), False)):
        phi = parse_lmu(text)
        assert BooleanFragment(m, interp).states(phi) is None
        out = model_check_lmu(phi, m, interp)
        reference = {s: eval_term(t, {}).value for s, t in translate_all(phi, m, interp).items()}
        assert out.values == reference
        assert (out.iterations > 0) == loops, text


def test_open_binders_are_never_read_as_solved():
    # only a closed binder's value may stand in for it: the inner binders
    # of `nu mu` and `mu nu mu` chains read the outer variables, so their
    # value at a state depends on where they are expanded. Pinning such a
    # value as if closed gives a wrong value in a few percent of 3-state
    # chains, so the corpus is sized to hold several (one successor per
    # state keeps the unstratified reference cheap). Each check, in every
    # order of the requested states for `nu mu`, must equal the
    # unstratified per-state terms
    rng = random.Random("open binders")
    for names, cases, orders in (("YX", 150, True), ("ZYX", 20, False)):
        for _ in range(cases):
            m = rand_model_exact(rng, 3, n_dists=1, max_support=1)
            phi, interp = chain(rng, names), rand_interp(rng, m)
            reference = {s: eval_term(t, {}).value for s, t in translate_all(phi, m, interp).items()}
            assert model_check_lmu(phi, m, interp).values == reference
            for order in (m.states[::-1], *((s,) for s in m.states)) if orders else ():
                values = model_check_lmu(phi, m, interp, order).values
                assert list(values.items()) == [(s, reference[s]) for s in order]


def test_strata_are_evaluated_only_where_reached(monkeypatch):
    # s0 reaches only itself, so checking s0 evaluates the closed fixed
    # point under `<>` at s0 alone, though its terms at s1 and s2 would
    # need loops of their own
    m, interp = parse_model(
        "state s0 s1 s2\n"
        "prop P = { s0: 1/2, s1: 1/3, s2: 1/4 }\n"
        "trans s0 -> { s0: 1 }\n"
        "trans s1 -> { s1: 1/2, s2: 1/2 }\n"
        "trans s2 -> { s1: 1 }\n"
    )
    evaluated = []
    value = TermEvaluator.value

    def recording_value(self, term, point):
        evaluated.append(lmu.render_lmu(term))
        return value(self, term, point)

    monkeypatch.setattr(TermEvaluator, "value", recording_value)
    out = model_check_lmu(parse_lmu("<>(mu Y. (P \\/ <>Y))"), m, interp, states=("s0",))
    assert out.values == {"s0": Fraction(1, 2)}
    assert not any("@s1" in text or "@s2" in text for text in evaluated)
    assert evaluated and all("@s0" in text for text in evaluated)


def test_a_check_evaluates_each_term_once_and_returns_values(monkeypatch):
    # the root is solved where the walk meets it, like every closed fixed
    # point, so a check hands back values and evaluates no term twice
    rng = random.Random("evaluated once")
    cases = []
    for names in ("YX", "ZYX"):
        for _ in range(15):
            m = rand_model_exact(rng, 3, n_dists=1, max_support=1)
            cases.append((chain(rng, names), m, rand_interp(rng, m)))
    m, interp = parse_model(
        "state s0 s1 s2\n"
        "prop P = { s0: 1/3, s2: 1/2 }\n"
        "trans s0 -> { s0: 1/2, s1: 1/2 }\n"
        "trans s1 -> { s2: 2/3, s1: 1/3 }\n"
        "trans s2 -> { s0: 1 }\n"
    )
    cases.append((parse_lmu("mu X. (P \\/ <>X)"), m, interp))
    evaluated = []
    value = TermEvaluator.value

    def recording_value(self, term, point):
        evaluated.append(term)
        return value(self, term, point)

    monkeypatch.setattr(TermEvaluator, "value", recording_value)
    total = 0
    for phi, m, interp in cases:
        evaluated.clear()
        values = model_check_lmu(phi, m, interp).values
        assert all(type(v) is Fraction for v in values.values())
        assert len(evaluated) == len(set(evaluated)), lmu.render_lmu(phi)
        total += len(evaluated)
    assert evaluated and total > len(cases)


def test_a_root_outside_the_fragment_is_decided_once(monkeypatch):
    # the fragment refuses the root as given; the renamed root is the same
    # formula, so the walk reads that refusal instead of deciding again
    m, interp = parse_model(
        "state s0 s1\n"
        "prop Q = { s1: 1/2 }\n"
        "trans s0 -> { s0: 1/2, s1: 1/2 }\n"
    )
    phi = parse_lmu("mu X. (Q \\/ <>X)")
    refusals = []
    states = BooleanFragment.states

    def counted(self, node):
        fresh = node not in self.decided
        result = states(self, node)
        if fresh and result is None:
            refusals.append(node)
        return result

    monkeypatch.setattr(BooleanFragment, "states", counted)
    out = model_check_lmu(phi, m, interp)
    assert out.values == {"s0": Fraction(1, 2), "s1": Fraction(1, 2)}
    assert refusals == [phi]


def test_unknown_requested_states_are_refused():
    # a root the fragment decides and a root on the term route both refuse
    # a state the model does not have
    m, interp = parse_model(
        "state s0 s1\n"
        "prop P1 = { s0: 1 }\n"
        "prop P2 = { s1: 1 }\n"
        "prop Q = { s1: 1/2 }\n"
        "trans s0 -> { s0: 1/2, s1: 1/2 }\n"
    )
    decided = encode_pctl(parse_pctl("E [P1 U P2]"))
    term_route = parse_lmu("mu X. (Q \\/ <>X)")
    assert BooleanFragment(m, interp).states(decided) is not None
    assert BooleanFragment(m, interp).states(term_route) is None
    for phi in (decided, term_route):
        with pytest.raises(TranslationError, match="unknown state 's9'"):
            model_check_lmu(phi, m, interp, states=("s0", "s9"))


def test_outcome_reports_iterations_and_requested_states():
    m, interp = parse_model(
        "state s0 s1\nprop P = { s1: 1 }\ntrans s0 -> { s0: 1/2, s1: 1/2 }"
    )
    phi = parse_lmu("mu X. (P \\/ <>X)")
    # at s1 the term folds to the constant 1 and no loop runs; at s0 the
    # term keeps the loop mu x. (1/2*x (+) 1/2*1)
    out = model_check_lmu(phi, m, interp, states=("s1",))
    assert list(out.values) == ["s1"]
    assert out.values["s1"] == Fraction(1)
    assert out.iterations == 0
    out = model_check_lmu(phi, m, interp, states=("s0",))
    assert list(out.values) == ["s0"]
    assert out.values["s0"] == Fraction(1)
    assert out.iterations > 0


def refused(call, error):
    """`call`, made to return once it has raised `error`."""

    def run():
        try:
            call()
        except error:
            return
        raise AssertionError(f"{error.__name__} not raised")

    return run


def test_checks_leave_no_cyclic_garbage():
    # what a check builds (model, interpretation, memo tables) is freed by
    # reference counting when the call returns or raises, not by the cyclic
    # collector
    m, interp = parse_model(
        "state s0 s1 s2\n"
        "prop P1 = { s0: 1, s1: 1 }\n"
        "prop P2 = { s2: 1 }\n"
        "trans s0 -> { s0: 1/2, s1: 1/2 }\n"
        "trans s0 -> { s2: 1 }\n"
        "trans s1 -> { s0: 1/3, s2: 2/3 }\n"
    )
    phi = parse_pctl("E [P1 U Pmax>=1/2 [P1 U P2]]")
    calls = {
        "model_check_pctl": lambda: model_check_pctl(phi, m, interp),
        "pctl_oracle": lambda: pctl_oracle(phi, m, interp),
        "kleene_lmu": lambda: kleene_lmu(encode_pctl(phi), m, interp),
        "translate_all over budget": refused(
            lambda: translate_all(encode_pctl(phi), m, interp, max_steps=2), TranslationError
        ),
        "kleene_lmu on a free variable": refused(
            lambda: kleene_lmu(lmu.Var("X"), m, interp), OracleError
        ),
    }
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = {}
        for name, call in calls.items():
            call()
            found[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found == dict.fromkeys(calls, 0)


def test_pctl_checking_requires_boolean_valuations():
    m, interp = parse_model("state s0\nprop P = { s0: 1/2 }")
    with pytest.raises(OracleError, match=r"non-boolean valuation P\(s0\) = 1/2"):
        model_check_pctl(parse_pctl("P"), m, interp)


def test_every_node_class_through_every_walker():
    # a walker that misses a node class raises TypeError or gives a wrong
    # value below; the first assertion keeps the formula covering every class
    m, interp = parse_model(
        "state s0 s1 s2\n"
        "prop P = { s0: 1/3, s1: 1, s2: 1/2 }\n"
        "trans s0 -> { s1: 1/2, s2: 1/2 }\n"
        "trans s0 -> { s0: 1 }\n"
        "trans s1 -> { s0: 1/4, s2: 3/4 }\n"
    )
    text = "mu X. ((P \\/ <>(1/2*X (+) 0)) /\\ nu Y. (~P (+) []Y) (.) 1)"
    phi = parse_lmu(text)
    nodes = list(lmu.subformulas(phi))
    assert {type(n) for n in nodes} == set(lmu.Lmu.__subclasses__())
    assert len(nodes) == 16

    assert [n.free for n in nodes] == [
        (), ("X",), ("X",), (), ("X",), ("X",), ("X",), ("X",),
        (), (), (), ("Y",), (), ("Y",), ("Y",), (),
    ]

    assert lmu.render_lmu(phi) == text
    assert parse_lmu(lmu.render_lmu(phi)) is phi

    normalized = lmu.normalize_binders(phi)
    assert [type(n) for n in lmu.subformulas(normalized)] == [type(n) for n in nodes]
    assert [n.var for n in lmu.subformulas(normalized) if isinstance(n, (lmu.Mu, lmu.Nu))] == [
        "X_1",
        "X_2",
    ]

    out = model_check_lmu(phi, m, interp)
    assert out.values == {"s0": Fraction(3, 8), "s1": Fraction(1), "s2": Fraction(1, 2)}
    kleene = kleene_lmu(phi, m, interp)
    assert kleene.stabilized and kleene.value == out.values
    assert model_check_lmu(lmu.dual(phi), m, interp).values == {
        s: 1 - v for s, v in out.values.items()
    }

    per_state = translate_all(phi, m, interp)
    for s, t in per_state.items():
        outcome = kleene_term(t, {})
        assert outcome.stabilized and outcome.value == out.values[s]
    # mu x_1@s1 would bind nothing: its body does not mention x_1@s1
    assert lmu.render_lmu(per_state["s1"]).startswith("nu x_2@s1. ")


@given(st.fractions(min_value=0, max_value=1, max_denominator=1000))
def test_constant_terms_are_read_off(q):
    # a constant `q*1`, as `translate` prints a decided state, evaluates to
    # q without a loop; a check gets such a state back as q itself
    # (tests/test_translator.py::test_constants_fold_to_values_not_nodes)
    t = lmu.constant(q)
    reference = TermEvaluator().evaluate(t, {})
    assert reference.value == q
    assert reference.iterations == 0


# P holds at s1 only; s0 moves to s1 with probability 3/10, which 0.3 is not
SPLIT = "state s0 s1 s2\nprop P = { s1: 1 }\ntrans s0 -> { s1: 3/10, s2: 7/10 }\n"


def pipeline_and_oracle(bound) -> tuple[Fraction, bool]:
    m, interp = parse_model(SPLIT)
    phi = pctl.ProbExists(False, bound, pctl.Next(pctl.Prop("P")))
    return model_check_pctl(phi, m, interp).values["s0"], pctl_oracle(phi, m, interp)["s0"]


def weights(w) -> list[str]:
    m, interp = parse_model(SPLIT)
    return validate_model(Pnts(m.states, {"s0": (Distribution((("s1", w), ("s2", 1 - w))),)}), interp)


def labels(v) -> list[str]:
    m, _ = parse_model(SPLIT)
    return validate_model(m, Interpretation({"P": {"s1": v}}))


@pytest.mark.parametrize(
    "entry, exact, accepted, refusal",
    [
        (
            lambda q: eval_term(parse_term("x"), {"x": q}).value,
            Fraction(1, 10),
            Fraction(1, 10),
            "x = 0.1 is a float, not an exact rational",
        ),
        (
            lambda q: lmu.Scalar(q, lmu.Var("x")).factor,
            Fraction(1, 10),
            Fraction(1, 10),
            "scalar factor 0.1 is a float, not an exact rational",
        ),
        (lmu.Const, Fraction(1), lmu.ONE, "constant 1.0 is a float, not an exact rational"),
        (
            pipeline_and_oracle,
            Fraction(3, 10),
            (1, True),
            "probability bound 0.3 is a float, not an exact rational",
        ),
        (
            weights,
            Fraction(3, 10),
            [],
            [
                "weight 0.3 for s1 is a float, not an exact rational",
                "weight 0.7 for s2 is a float, not an exact rational",
            ],
        ),
        (labels, Fraction(1), [], ["valuation P(s1) = 1.0 is a float, not an exact rational"]),
    ],
    ids=["eval_term", "Scalar", "Const", "ProbExists", "weights", "labels"],
)
def test_floats_are_refused(entry, exact, accepted, refusal):
    """A binary float is refused with the error each entry point raises or
    reports for a bad value, where converting it would silently change the
    number (0.3 is 5404319552844595/18014398509481984); exact values and
    ints are accepted."""

    def outcome(value):
        try:
            return entry(value)
        except ValueError as exc:
            return str(exc)

    assert outcome(float(exact)) == refusal
    assert outcome(exact) == accepted
    assert not isinstance(outcome(1), str)

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import rand_interp, rand_lmu, rand_model, rand_model_exact, term_dag
from lmucheck import lmu
from lmucheck.checking import model_check_lmu
from lmucheck.evaluator import TermEvaluator, eval_term
from lmucheck.model import parse_model
from lmucheck.oracle import direct_value, kleene_lmu
from lmucheck.parser import parse_lmu
from lmucheck.translator import TranslationError, term_var, translate_all

F = Fraction

COIN = """
state s0 s1
prop P = { s0: 0, s1: 1 }
trans s0 -> { s0: 1/2, s1: 1/2 }
"""


def binder_names(phi: lmu.Lmu) -> list[str]:
    return [n.var for n in lmu.subformulas(phi) if isinstance(n, (lmu.Mu, lmu.Nu))]


def test_normalized_binders_are_apart():
    # the translator numbers binders by name and relies on this alone: after
    # normalization, binder names are pairwise distinct and differ from
    # every proposition and free name, and node classes keep their pre-order
    formulas = [
        parse_lmu(text)
        for text in (
            "mu X. (X \\/ mu X. X)",
            "nu X. (<>(mu X. X) /\\ X)",
            "mu X. mu Y. (X \\/ nu X. (Y /\\ X))",
            "mu X. X \\/ mu X. X",
            # a proposition and a free variable named like normalized binders
            "mu X. (X_1 \\/ <>X) /\\ nu X_1. (X_2 (+) X_1)",
        )
    ]
    rng = random.Random(19)
    for _ in range(200):
        # the free X_1 and the proposition X_2 take names normalization
        # would otherwise pick; folding the distinct V1, V2, ... onto V0 and
        # V1 makes binders shadow each other
        phi = rand_lmu(rng, depth=rng.randint(0, 5), env=("X_1",), props=("P1", "X_2"))
        shadowed = re.sub(r"V(\d+)", lambda v: f"V{int(v[1]) % 2}", lmu.render_lmu(phi))
        formulas += [phi, parse_lmu(shadowed)]
    for phi in formulas:
        normalized = lmu.normalize_binders(phi)
        names = binder_names(normalized)
        assert len(set(names)) == len(names), phi
        assert not set(names) & (lmu.propositions(phi) | set(phi.free)), phi
        assert normalized.free == phi.free
        assert [type(n) for n in lmu.subformulas(normalized)] == [
            type(n) for n in lmu.subformulas(phi)
        ]


def test_constants_take_no_binder_number():
    # the literals `1` and `0` are leaves, not fixed points
    phi = lmu.normalize_binders(parse_lmu("mu X. (1/2*1 \\/ <>X) /\\ 0"))
    assert binder_names(phi) == ["X_1"]


def test_translate_diamond_expectation():
    m, interp = parse_model(COIN)
    t = translate_all(parse_lmu("<>P"), m, interp, ("s0",))["s0"]
    # 1/2*0 (+) 1/2*1 folds to the constant 1/2
    assert t == lmu.constant(F(1, 2))
    assert eval_term(t, {}).value == F(1, 2)


def test_translate_deadlock_modalities():
    m, interp = parse_model(COIN)
    assert translate_all(parse_lmu("<>P"), m, interp, ("s1",))["s1"] == lmu.constant(F(0))
    assert translate_all(parse_lmu("[]P"), m, interp, ("s1",))["s1"] == lmu.constant(F(1))


def test_translate_reachability_value():
    m, interp = parse_model(COIN)
    t = translate_all(parse_lmu("mu X. (P \\/ <>X)"), m, interp, ("s0",))["s0"]
    assert eval_term(t, {}).value == 1  # 1/2 + 1/4 + ... exactly


def test_translate_requires_closed_formula():
    m, interp = parse_model(COIN)
    with pytest.raises(TranslationError, match="closed"):
        translate_all(lmu.Var("X"), m, interp, ("s0",))


def test_translate_unknown_state():
    m, interp = parse_model(COIN)
    with pytest.raises(TranslationError, match="unknown state"):
        translate_all(lmu.ONE, m, interp, ("s9",))


def test_translated_terms_are_closed():
    rng = random.Random(67)
    for _ in range(30):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        for s in m.states:
            t = translate_all(phi, m, interp, (s,))[s]
            assert t.free == ()


def test_term_var_rendering():
    assert term_var(2, "s1") == "x_2@s1"


def test_fixed_point_free_matches_direct_recursion():
    rng = random.Random(71)
    for _ in range(60):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=rng.randint(0, 3), fixed_point_free=True)
        direct = direct_value(phi, m, interp)
        for s in m.states:
            assert eval_term(translate_all(phi, m, interp, (s,))[s], {}).value == direct[s]


def test_translation_value_within_kleene_bounds():
    rng = random.Random(73)
    for _ in range(25):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        outcome = kleene_lmu(phi, m, interp, budget=300)
        for s in m.states:
            value = eval_term(translate_all(phi, m, interp, (s,))[s], {}).value
            if outcome.stabilized:
                assert outcome.value[s] == value
            else:
                if outcome.lower_sound:
                    assert outcome.value[s] <= value
                if outcome.upper_sound:
                    assert outcome.value[s] >= value


def test_memoized_translation_is_pure():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    assert translate_all(phi, m, interp, ("s0",)) == translate_all(phi, m, interp, ("s0",))


def test_translation_step_cap():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    with pytest.raises(TranslationError, match="steps"):
        translate_all(phi, m, interp, ("s0",), max_steps=2)


def test_translate_all_shares_subterms():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    per_state = translate_all(phi, m, interp)
    assert set(per_state) == {"s0", "s1"}
    assert per_state["s0"] == translate_all(phi, m, interp, ("s0",))["s0"]
    # `lmucheck translate` prints translate_all's terms; one memo shared by
    # all states must not change any state's term
    rng = random.Random(79)
    for _ in range(40):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        per_state = translate_all(phi, m, interp)
        for s in m.states:
            assert per_state[s] == translate_all(phi, m, interp, (s,))[s]


# s has two distributions, d is deadlocked; `No` is 0 and `Yes` 1 everywhere
FOLD = """
state s d
prop A = { s: 1/3, d: 1/3 }
prop B = { s: 1/2, d: 1/2 }
prop C = { s: 3/4 }
prop No = { s: 0, d: 0 }
prop Yes = { s: 1, d: 1 }
trans s -> { s: 1/2, d: 1/2 }
trans s -> { d: 1 }
"""

X_S = lmu.Var(term_var(1, "s"))
HALF_X = lmu.Mu(term_var(1, "s"), lmu.Scalar(F(1, 2), X_S))  # mu x. 1/2*x


def threshold(rel, arg, q=None):
    """The text of `lmu.expand_threshold(rel, arg, q)`."""
    return lmu.render_lmu(lmu.expand_threshold(rel, parse_lmu(arg), q))


@pytest.mark.parametrize(
    "text, state, expected",
    [
        # both operands constant: max, min, min(1, a+b), max(0, a+b-1)
        ("A \\/ C", "s", F(3, 4)),
        ("A /\\ C", "s", F(1, 3)),
        ("A (+) B", "s", F(5, 6)),
        ("B (+) C", "s", F(1)),
        ("B (.) C", "s", F(1, 4)),
        ("A (.) B", "s", F(0)),
        # absorbing elements, constant on either side
        ("mu X. (Yes \\/ 1/2*X)", "s", F(1)),
        ("mu X. (1/2*X \\/ Yes)", "s", F(1)),
        ("mu X. (Yes (+) 1/2*X)", "s", F(1)),
        ("mu X. (1/2*X (+) Yes)", "s", F(1)),
        ("nu X. (No /\\ 1/2*X)", "s", F(0)),
        ("nu X. (1/2*X /\\ No)", "s", F(0)),
        ("nu X. (No (.) 1/2*X)", "s", F(0)),
        ("nu X. (1/2*X (.) No)", "s", F(0)),
        # neutral elements, constant on either side
        ("mu X. (No \\/ 1/2*X)", "s", HALF_X),
        ("mu X. (1/2*X \\/ No)", "s", HALF_X),
        ("mu X. (No (+) 1/2*X)", "s", HALF_X),
        ("mu X. (1/2*X (+) No)", "s", HALF_X),
        ("mu X. (Yes /\\ 1/2*X)", "s", HALF_X),
        ("mu X. (1/2*X /\\ Yes)", "s", HALF_X),
        ("mu X. (Yes (.) 1/2*X)", "s", HALF_X),
        ("mu X. (1/2*X (.) Yes)", "s", HALF_X),
        # scalars: 0*t, 1*t, q*c
        ("0*A", "s", F(0)),
        ("nu X. 0*X", "s", F(0)),
        ("mu X. 1*(1/2*X)", "s", HALF_X),
        ("1/2*C", "s", F(3, 8)),
        # binders: constant body, mu x.x and nu x.x
        ("mu X. B", "s", F(1, 2)),
        ("nu X. (A (+) B)", "s", F(5, 6)),
        ("mu X. X", "s", F(0)),
        ("nu X. X", "s", F(1)),
        # co-propositions, deadlocked modalities and per-distribution sums
        ("~A", "s", F(2, 3)),
        ("<>A", "d", F(0)),
        ("[]A", "d", F(1)),
        ("<>A", "s", F(1, 3)),
        ("[]C", "s", F(0)),
        ("<>C", "s", F(3, 8)),
        ("[]~C", "s", F(5, 8)),
        # thresholds over a decided argument: `mu x. (x (+) q*1)` is 1 and
        # `nu x. (x (.) q*1)` is 0 for 0 < q < 1, constant on either side
        (threshold(">0", "A"), "s", F(1)),
        (threshold(">0", "<>A"), "s", F(1)),
        (threshold(">0", "No"), "s", F(0)),
        (threshold("=1", "A"), "s", F(0)),
        (threshold("=1", "<>C"), "s", F(0)),
        (threshold("=1", "Yes"), "s", F(1)),
        ("mu X. (C (+) X)", "s", F(1)),
        ("mu X. (X (+) C)", "s", F(1)),
        ("nu X. (C (.) X)", "s", F(0)),
        ("nu X. (X (.) C)", "s", F(0)),
        # the argument B = 1/2 at q, just below q (q = 51/100) and just above
        # it (q = 49/100)
        (threshold(">", "B", F(1, 2)), "s", F(0)),
        (threshold(">", "B", F(51, 100)), "s", F(0)),
        (threshold(">", "B", F(49, 100)), "s", F(1)),
        (threshold(">=", "B", F(1, 2)), "s", F(1)),
        (threshold(">=", "B", F(51, 100)), "s", F(0)),
        (threshold(">=", "B", F(49, 100)), "s", F(1)),
    ],
)
def test_fold_rules(text, state, expected):
    m, interp = parse_model(FOLD)
    phi = parse_lmu(text)
    t = translate_all(phi, m, interp, (state,))[state]
    if isinstance(expected, lmu.Lmu):
        assert t == expected
    else:
        assert t == lmu.constant(expected)
    if any(isinstance(n, (lmu.Mu, lmu.Nu)) for n in lmu.subformulas(phi)):
        outcome = kleene_lmu(phi, m, interp, budget=300)
        assert outcome.stabilized
        assert eval_term(t, {}).value == outcome.value[state]
    else:
        assert eval_term(t, {}).value == direct_value(phi, m, interp)[state]


def test_short_circuit_skips_the_decided_operand():
    m, interp = parse_model(
        "state s0 s1\nprop P = { s0: 1, s1: 0 }\n"
        "trans s0 -> { s1: 1 }\ntrans s1 -> { s0: 1 }\n"
    )
    # P = 1 at s0 decides the join: the binder, the join and P are all the
    # walk visits, while <>X would re-expand the binder at s1
    decided = parse_lmu("mu X. (P \\/ <>X)")
    assert translate_all(decided, m, interp, ("s0",), max_steps=3)["s0"] == lmu.constant(F(1))
    swapped = parse_lmu("mu X. (<>X \\/ P)")
    with pytest.raises(TranslationError, match="steps"):
        translate_all(swapped, m, interp, ("s0",), max_steps=3)
    assert translate_all(swapped, m, interp, ("s0",))["s0"] == lmu.constant(F(1))


def is_constant(node) -> bool:
    return isinstance(node, lmu.Scalar) and node.body is lmu.ONE


def assert_fully_folded(per_state) -> None:
    """No node of the translation matches a fold rule, and each constant
    value has one node."""
    nodes = term_dag(per_state.values())
    values = {}
    for n in nodes:
        if is_constant(n):
            assert values.setdefault(n.factor, n) is n, n
        elif n is lmu.ONE:
            continue  # the body of every constant
        elif isinstance(n, lmu.Scalar):
            assert n.factor not in (0, 1) and not is_constant(n.body), n
        elif isinstance(n, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
            for side in (n.left, n.right):
                assert not (is_constant(side) and side.factor in (0, 1)), n
            assert not (is_constant(n.left) and is_constant(n.right)), n
        elif isinstance(n, (lmu.Mu, lmu.Nu)):
            # a constant body mentions no variable, so this covers it
            assert n.var in n.body.free and n.body is not lmu.Var(n.var), n
            # no threshold over a decided argument: mu x. (x (+) q*1) is 1
            # and nu x. (x (.) q*1) is 0, with x on either side
            connective = lmu.OPlus if isinstance(n, lmu.Mu) else lmu.OTimes
            if isinstance(n.body, connective):
                sides = (n.body.left, n.body.right)
                assert not (lmu.Var(n.var) in sides and any(map(is_constant, sides))), n


def test_folded_values_within_kleene_bounds_on_random_corpus():
    rng = random.Random(83)
    for _ in range(60):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=rng.randint(1, 4))
        per_state = translate_all(phi, m, interp)
        assert_fully_folded(per_state)
        values = model_check_lmu(phi, m, interp).values
        outcome = kleene_lmu(phi, m, interp, budget=300)
        for s in m.states:
            assert eval_term(per_state[s], {}).value == values[s]
            if outcome.stabilized:
                assert outcome.value[s] == values[s]
            if outcome.lower_sound:
                assert outcome.value[s] <= values[s]
            if outcome.upper_sound:
                assert outcome.value[s] >= values[s]


def test_constants_fold_to_values_not_nodes(monkeypatch):
    # a fixed-point-free formula folds to a constant at every state; the
    # walk keeps those constants as values, so without an evaluator the only
    # constant nodes built are the per-state results
    rng = random.Random(41)
    m = rand_model_exact(rng, 200, n_dists=2, max_support=3)
    interp = rand_interp(rng, m)
    phi = parse_lmu("<>(P1 \\/ []~P2) (+) 1/2*(P2 (.) <>P1) /\\ [](1/3*1 \\/ ~P1)")
    built = []
    constant = lmu.constant
    monkeypatch.setattr(lmu, "constant", lambda q: built.append(q) or constant(q))
    per_state = translate_all(phi, m, interp)
    assert len(built) <= len(m.states)
    expected = direct_value(phi, m, interp)
    assert per_state == {s: constant(expected[s]) for s in m.states}
    # a check gets every decided state back as its value: no constant node
    # and no evaluation
    built.clear()
    monkeypatch.setattr(TermEvaluator, "value", lambda *args: pytest.fail("the evaluator ran"))
    assert model_check_lmu(phi, m, interp).values == expected
    assert built == []


# s loops back to itself between deadlocked successors that labels decide:
# a and c have fractional labels and b has label 1
SUM_ORDER = """
state a c s b
prop P = { a: 1/2, c: 1/3, b: 1 }
trans s -> { a: 1/4, s: 1/2, b: 1/4 }
trans s -> { a: 1/4, c: 1/6, s: 1/3, b: 1/4 }
"""


def test_sum_keeps_constants_on_both_sides_of_an_undecided_piece():
    # the pieces at a (and c) are decided, at s undecided, at b decided: the
    # leading run folds to one constant (1/8, then 1/8 + 1/18 = 13/72), and
    # the piece after the undecided one stays a constant of its own
    m, interp = parse_model(SUM_ORDER)
    t = translate_all(parse_lmu("mu X. (P \\/ <>X)"), m, interp, ("s",))["s"]
    assert lmu.render_lmu(t) == (
        "mu x_1@s. (1/8*1 (+) 1/2*x_1@s (+) 1/4*1 \\/ 13/72*1 (+) 1/3*x_1@s (+) 1/4*1)"
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_sums_over_large_denominators_fold_to_direct_value(seed):
    # weights and labels with denominators up to 1000, supports up to 3:
    # sums of decided pieces run on integers over products of denominators
    rng = random.Random(seed)
    m = rand_model_exact(rng, rng.randint(2, 4), n_dists=2, max_support=3, max_den=1000)
    interp = rand_interp(rng, m, max_den=1000)
    phi = rand_lmu(rng, depth=rng.randint(1, 3), fixed_point_free=True)
    expected = direct_value(phi, m, interp)
    assert translate_all(phi, m, interp) == {s: lmu.constant(expected[s]) for s in m.states}

import random
import sys
from fractions import Fraction

import pytest

from generators import rand_bool_interp, rand_lmu, rand_model, rand_pctl, rand_term
from lmucheck import lmu, pctl, terms
from lmucheck.checking import model_check_lmu
from lmucheck.model import parse_model
from lmucheck.parser import ParseError, parse_lmu, parse_pctl, parse_term


def test_term_free_variables_deep_term():
    t: terms.Term = terms.TVar("x")
    for i in range(10_000):
        t = terms.TOPlus(t, terms.TVar("y")) if i % 2 else terms.TMu("z", t)
    phi: lmu.Lmu = lmu.Var("x")
    wrappers = (
        lambda f: lmu.Mu("z", f),
        lmu.Diamond,
        lambda f: lmu.OPlus(f, lmu.Prop("P")),
        lmu.Box,
    )
    for i in range(10_000):
        phi = wrappers[i % 4](phi)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; conftest raises it
    try:
        assert terms.term_free_variables(t) == frozenset({"x", "y"})
        assert terms.term_free_variables(terms.TMu("x", t)) == frozenset({"y"})
        assert lmu.free_variables(phi) == frozenset({"x"})
        assert lmu.free_variables(lmu.Nu("x", phi)) == frozenset()
        assert lmu.used_names(phi) == {"x", "z", "P"}
        subs = list(lmu.subformulas(phi))
    finally:
        sys.setrecursionlimit(limit)
    assert len(subs) == 10_001 + 2_500  # every wrapper plus the innermost x, and each P
    assert subs[0] is phi and subs[-1] == lmu.Prop("P")


def test_subformulas_pre_order():
    x, p, y = lmu.Var("X"), lmu.Prop("P"), lmu.Var("Y")
    mu = lmu.Mu("X", lmu.Diamond(x))
    nu = lmu.Nu("Y", lmu.Scalar(Fraction(1, 2), y))
    meet = lmu.Meet(p, nu)
    phi = lmu.Join(mu, meet)
    assert list(lmu.subformulas(phi)) == [
        phi, mu, mu.body, x, meet, p, nu, nu.body, y
    ]


@pytest.mark.parametrize(
    "text, message",
    [
        ("X", "column 1: term variables start lowercase, got 'X'"),
        ("mu X. x", "column 4: term variables start lowercase, got 'X'"),
        ("mu mu. x", "column 4: mu is a keyword, not a variable"),
        ("<>x", "column 1: unexpected '<>'"),
        ("1/2*[]x", "column 5: unexpected '[]'"),
        ("~x", "column 1: unexpected '~'"),
        ("1/2", "column 1: bare rational 1/2; only literals 0 and 1 (or q*t)"),
        ("x (+) y)", "column 8: unexpected trailing input ')'"),
        ("x $", "column 3: unexpected character '$'"),
        ("mu x. (x", "column 9: expected ')', found 'end of input'"),
    ],
)
def test_parse_term_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert str(info.value) == message


def test_terms_are_formulas():
    text = "mu x. (x (+) 1/2*1)"
    assert parse_term(text) == parse_lmu(text)
    assert parse_term("nu y. (y /\\ 0 \\/ 1)") == parse_lmu("nu y. (y /\\ 0 \\/ 1)")


def test_parse_lmu_basic():
    phi = parse_lmu("mu X. (P \\/ <>X)")
    assert phi == lmu.Mu("X", lmu.Join(lmu.Prop("P"), lmu.Diamond(lmu.Var("X"))))


def test_parse_pctl_basic():
    phi = parse_pctl("Pmax>=1/2 [ P1 U P2 ]")
    assert phi == pctl.ProbExists(
        False, Fraction(1, 2), pctl.Until(pctl.Prop("P1"), pctl.Prop("P2"))
    )


def test_parse_worked_example_term():
    t = parse_term("mu x . ( nu y . ( y (.) ( x (+) 1/2*1 ) ) \\/ 1/2*1 )")
    half = terms.tconst(Fraction(1, 2))
    inner = terms.TNu("y", terms.TOTimes(terms.TVar("y"), terms.TOPlus(terms.TVar("x"), half)))
    assert t == terms.TMu("x", terms.TJoin(inner, half))


def test_parse_literals_and_complement():
    assert parse_lmu("1") == lmu.ONE
    assert parse_lmu("0") == lmu.ZERO
    assert parse_lmu("~P") == lmu.CoProp("P")
    assert parse_lmu("1/2*1") == lmu.constant(Fraction(1, 2))


def test_parse_precedence():
    # scalar binds tighter than (.), which binds tighter than (+), /\, \/
    phi = parse_lmu("P \\/ Q /\\ 1/2*P (+) R (.) S")
    expected = lmu.Join(
        lmu.Prop("P"),
        lmu.Meet(
            lmu.Prop("Q"),
            lmu.OPlus(
                lmu.Scalar(Fraction(1, 2), lmu.Prop("P")),
                lmu.OTimes(lmu.Prop("R"), lmu.Prop("S")),
            ),
        ),
    )
    assert phi == expected


def test_binder_scope_maximal_right_when_unparenthesized():
    phi = parse_lmu("mu X. P \\/ X")
    assert phi == lmu.Mu("X", lmu.Join(lmu.Prop("P"), lmu.Var("X")))


def test_binder_scope_delimited_by_parenthesized_body():
    phi = parse_lmu("nu Y. (Y) \\/ P")
    assert phi == lmu.Join(lmu.Nu("Y", lmu.Var("Y")), lmu.Prop("P"))


def test_parse_errors():
    with pytest.raises(ParseError, match="unbound variable"):
        parse_lmu("mu X. y")
    with pytest.raises(ParseError, match="column"):
        parse_lmu("mu X. (P \\/")
    with pytest.raises(ParseError, match=r"outside \[0, 1\]"):
        parse_lmu("3/2*P")
    with pytest.raises(ParseError, match="bare rational"):
        parse_lmu("1/2")
    with pytest.raises(ParseError):
        parse_pctl("Pmax=1/2 [ P U Q ]")
    with pytest.raises(ParseError, match="keyword"):
        parse_pctl("P | X")


def test_lmu_round_trip_random():
    rng = random.Random(23)
    for _ in range(300):
        phi = rand_lmu(rng, depth=rng.randint(0, 4))
        assert parse_lmu(lmu.render_lmu(phi)) == phi


def test_term_round_trip_random():
    rng = random.Random(29)
    for _ in range(300):
        t = rand_term(rng, depth=rng.randint(0, 4), env=("x", "y"))
        assert parse_term(terms.render_term(t)) == t


def test_pctl_round_trip_random():
    rng = random.Random(31)
    for _ in range(300):
        phi = rand_pctl(rng, depth=rng.randint(0, 3))
        assert parse_pctl(pctl.render_pctl(phi)) == phi


def test_translator_var_names_round_trip():
    t = terms.TMu("x_1@s0", terms.TOPlus(terms.TVar("x_1@s0"), terms.TVar("x_2@s1")))
    assert parse_term(terms.render_term(t)) == t


def test_dual_swaps_connectives():
    assert lmu.dual(lmu.Diamond(lmu.Prop("P"))) == lmu.Box(lmu.CoProp("P"))
    assert lmu.dual(lmu.ONE) == lmu.ZERO


def test_dual_requires_closed():
    with pytest.raises(ValueError, match="closed"):
        lmu.dual(lmu.Var("X"))


def test_dual_involution_without_scalars():
    rng = random.Random(37)
    for _ in range(200):
        phi = rand_lmu(rng, depth=rng.randint(0, 4))
        if any(isinstance(s, lmu.Scalar) for s in lmu.subformulas(phi)):
            continue
        assert lmu.dual(lmu.dual(phi)) == phi


def test_dual_of_scalar_constant_evaluates_to_complement():
    # value-level check of the scalar rule on a one-state model
    m, interp = parse_model("state s0")
    phi = lmu.constant(Fraction(1, 3))
    out = model_check_lmu(lmu.dual(phi), m, interp)
    assert out.values["s0"] == Fraction(2, 3)


def test_dual_double_application_keeps_value():
    rng = random.Random(41)
    for _ in range(40):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_bool_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        twice = lmu.dual(lmu.dual(phi))
        assert (
            model_check_lmu(twice, m, interp).values
            == model_check_lmu(phi, m, interp).values
        )


def test_threshold_shapes():
    p = lmu.Prop("P")
    gt0 = lmu.expand_threshold(">0", p)
    assert isinstance(gt0, lmu.Mu)
    assert gt0.body == lmu.OPlus(lmu.Var(gt0.var), p)

    geq = lmu.expand_threshold(">=", p, Fraction(1, 2))
    assert isinstance(geq, lmu.Nu)
    assert geq.body == lmu.OTimes(
        lmu.Var(geq.var), lmu.OPlus(p, lmu.constant(Fraction(1, 2)))
    )


def test_threshold_fresh_variable_avoids_collisions():
    p = lmu.Mu("_T1", lmu.Join(lmu.Prop("P"), lmu.Var("_T1")))
    wrapped = lmu.expand_threshold(">0", p)
    assert wrapped.var != "_T1"


def test_threshold_rejects_boundary_q():
    with pytest.raises(ValueError):
        lmu.expand_threshold(">", lmu.Prop("P"), Fraction(0))
    with pytest.raises(ValueError):
        lmu.expand_threshold(">=", lmu.Prop("P"), Fraction(1))


def test_threshold_eq_one_of_one_is_one():
    m, interp = parse_model("state s0")
    out = model_check_lmu(lmu.expand_threshold("=1", lmu.ONE), m, interp)
    assert out.values["s0"] == 1


def test_normalize_binders_examples():
    phi = parse_lmu("mu X. (X \\/ mu X. X)")
    assert lmu.normalize_binders(phi) == lmu.Mu(
        "X_1", lmu.Join(lmu.Var("X_1"), lmu.Mu("X_2", lmu.Var("X_2")))
    )
    phi2 = parse_lmu("mu X. nu Y. (X /\\ Y)")
    assert lmu.normalize_binders(phi2) == lmu.Mu(
        "X_1", lmu.Nu("X_2", lmu.Meet(lmu.Var("X_1"), lmu.Var("X_2")))
    )


def test_normalize_binders_avoids_capture_by_prop_names():
    phi = lmu.Mu("A", lmu.Join(lmu.Prop("X_1"), lmu.Var("A")))
    normalized = lmu.normalize_binders(phi)
    assert isinstance(normalized, lmu.Mu)
    assert normalized.var != "X_1"
    assert parse_lmu(lmu.render_lmu(normalized)) == normalized


def test_normalize_preserves_value():
    rng = random.Random(43)
    for _ in range(40):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_bool_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        assert (
            model_check_lmu(lmu.normalize_binders(phi), m, interp).values
            == model_check_lmu(phi, m, interp).values
        )

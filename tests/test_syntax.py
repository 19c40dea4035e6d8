import copy
import gc
import pickle
import random
import sys
from fractions import Fraction

import pytest

from generators import rand_bool_interp, rand_lmu, rand_model, rand_pctl, rand_term
from lmucheck import lmu, pctl
from lmucheck.checking import model_check_lmu
from lmucheck.model import parse_model
from lmucheck.parser import (
    _FORMULA_SYMBOLS,
    _PCTL_SYMBOLS,
    ParseError,
    _tokenize,
    parse_lmu,
    parse_pctl,
    parse_term,
)


def deep_chain() -> lmu.Lmu:
    phi: lmu.Lmu = lmu.Var("x")
    wrappers = (
        lambda f: lmu.Mu("z", f),
        lmu.Diamond,
        lambda f: lmu.OPlus(f, lmu.Prop("P")),
        lmu.Box,
    )
    for i in range(10_000):
        phi = wrappers[i % 4](phi)
    return phi


def test_term_free_variables_deep_term():
    t: lmu.Lmu = lmu.Var("x")
    for i in range(10_000):
        t = lmu.OPlus(t, lmu.Var("y")) if i % 2 else lmu.Mu("z", t)
    phi = deep_chain()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; conftest raises it
    try:
        assert t.free == ("x", "y")
        assert lmu.Mu("x", t).free == ("y",)
        assert phi.free == ("x",)
        assert lmu.Nu("x", phi).free == ()
        assert hash(phi) == hash(phi) and phi == phi
        assert deep_chain() is phi
        assert lmu.used_names(phi) == {"x", "z", "P"}
        subs = list(lmu.subformulas(phi))
    finally:
        sys.setrecursionlimit(limit)
    assert len(subs) == 10_001 + 2_500  # every wrapper plus the innermost x, and each P
    assert subs[0] is phi and subs[-1] is lmu.Prop("P")


def test_nodes_are_unique():
    x, y = lmu.Var("x"), lmu.Var("y")
    assert lmu.Var("x") is x and lmu.Prop("x") is not x
    assert lmu.Const(1) is lmu.ONE and lmu.Const(Fraction(0)) is lmu.ZERO
    half = lmu.Scalar(Fraction(1, 2), lmu.ONE)
    assert lmu.Scalar(Fraction(2, 4), lmu.ONE) is half is lmu.constant(Fraction(1, 2))
    assert lmu.Scalar(1, x) is lmu.Scalar(Fraction(1), x)
    assert type(lmu.Scalar(1, x).factor) is Fraction
    phi = lmu.Mu("x", lmu.Join(x, lmu.Diamond(y)))
    assert lmu.Mu("x", lmu.Join(lmu.Var("x"), lmu.Diamond(lmu.Var("y")))) is phi
    assert phi.free == ("y",) and phi.body.free == ("x", "y")
    assert copy.deepcopy(phi) is phi and pickle.loads(pickle.dumps(phi)) is phi
    with pytest.raises(AttributeError):
        x.name = "y"
    with pytest.raises(AttributeError):
        phi.free = ()

    gc.collect()
    live = len(lmu._nodes)
    with pytest.raises(ValueError, match="neither 0 nor 1"):
        lmu.Const(Fraction(1, 2))
    with pytest.raises(ValueError, match="outside"):
        lmu.Scalar(Fraction(3, 2), x)
    with pytest.raises(TypeError, match="takes fields"):
        lmu.Join(x)
    assert len(lmu._nodes) == live
    chain = deep_chain()
    assert len(lmu._nodes) >= live + 10_000
    del chain
    gc.collect()
    assert len(lmu._nodes) == live


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
    half = lmu.constant(Fraction(1, 2))
    inner = lmu.Nu("y", lmu.OTimes(lmu.Var("y"), lmu.OPlus(lmu.Var("x"), half)))
    assert t == lmu.Mu("x", lmu.Join(inner, half))


def test_parse_literals_and_complement():
    assert parse_lmu("1") == lmu.ONE
    assert parse_lmu("0") == lmu.ZERO
    assert parse_lmu("~P") == lmu.CoProp("P")
    assert parse_lmu("1/2*1") == lmu.constant(Fraction(1, 2))
    # the literals are leaves; a written fixed point of the identity is not one
    assert parse_lmu("1") == lmu.Const(Fraction(1))
    assert lmu.render_lmu(parse_lmu("nu _1. _1")) == "nu _1. (_1)"
    for bad in (Fraction(1, 2), 2, -1):
        with pytest.raises(ValueError, match="neither 0 nor 1"):
            lmu.Const(bad)


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


# the concrete syntax's precedence levels, loosest first; infix connectives
# are left-associative
LEVELS = (
    (lmu.Join,),
    (lmu.Meet,),
    (lmu.OPlus,),
    (lmu.OTimes,),
    (lmu.Diamond, lmu.Box),
    (lmu.Scalar,),
)
LEVEL = {cls: i for i, group in enumerate(LEVELS) for cls in group}
TEXT = {
    lmu.Join: "\\/",
    lmu.Meet: "/\\",
    lmu.OPlus: "(+)",
    lmu.OTimes: "(.)",
    lmu.Diamond: "<>",
    lmu.Box: "[]",
    lmu.Scalar: "1/2*",
}
INFIX = (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)


def sample(cls, operand: lmu.Lmu, text: str) -> tuple[lmu.Lmu, str]:
    """A node of class cls whose last operand is `operand`, and its text,
    with `text` written for that operand."""
    if cls in INFIX:
        return cls(lmu.Prop("P1"), operand), f"P1 {TEXT[cls]} {text}"
    if cls is lmu.Scalar:
        return lmu.Scalar(Fraction(1, 2), operand), f"{TEXT[cls]}{text}"
    return cls(operand), f"{TEXT[cls]}{text}"


@pytest.mark.parametrize(
    "outer, inner, side",
    [
        (outer, inner, side)
        for outer in TEXT
        for inner in TEXT
        for side in (("left", "right") if outer in INFIX else ("body",))
    ],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_render_parenthesizes_by_precedence(outer, inner, side):
    """An operand is parenthesized exactly when it binds looser than its
    position allows; an infix right operand at the outer level counts as
    looser, since every infix connective is left-associative."""
    node, text = sample(inner, lmu.Prop("P2"), "P2")
    if side == "left":
        bare = LEVEL[inner] >= LEVEL[outer]
        phi = outer(node, lmu.Prop("P3"))
        expected = f"{text if bare else f'({text})'} {TEXT[outer]} P3"
    else:
        bare = LEVEL[inner] > LEVEL[outer] if side == "right" else LEVEL[inner] >= LEVEL[outer]
        phi, expected = sample(outer, node, text if bare else f"({text})")
    assert lmu.render_lmu(phi) == expected
    assert parse_lmu(expected) is phi


def test_binder_scope_maximal_right_when_unparenthesized():
    phi = parse_lmu("mu X. P \\/ X")
    assert phi == lmu.Mu("X", lmu.Join(lmu.Prop("P"), lmu.Var("X")))


def test_binder_scope_delimited_by_parenthesized_body():
    phi = parse_lmu("nu Y. (Y) \\/ P")
    assert phi == lmu.Join(lmu.Nu("Y", lmu.Var("Y")), lmu.Prop("P"))


@pytest.mark.parametrize(
    "symbols, text, expected",
    [
        # a longer symbol wins over its prefix, and only the whole of it
        (_FORMULA_SYMBOLS, "x(+)y", [("ident", "x", 1), ("sym", "(+)", 2), ("ident", "y", 5)]),
        (_FORMULA_SYMBOLS, "(x)", [("sym", "(", 1), ("ident", "x", 2), ("sym", ")", 3)]),
        (_FORMULA_SYMBOLS, "(.) (+", "column 6: unexpected character '+'"),
        (_PCTL_SYMBOLS, "P>=1/2", [("ident", "P", 1), ("sym", ">=", 2), ("num", "1/2", 4)]),
        (_PCTL_SYMBOLS, "> =", "column 3: unexpected character '='"),
        # a rational stops where its fraction part cannot continue
        (_FORMULA_SYMBOLS, "1/\\x", [("num", "1", 1), ("sym", "/\\", 2), ("ident", "x", 4)]),
        (_FORMULA_SYMBOLS, "1.5.2", [("num", "1.5", 1), ("sym", ".", 4), ("num", "2", 5)]),
        (_FORMULA_SYMBOLS, "x@s1.5", [("ident", "x@s1", 1), ("sym", ".", 5), ("num", "5", 6)]),
        (_PCTL_SYMBOLS, "x@s1.5", "column 5: unexpected character '.'"),
        (_FORMULA_SYMBOLS, "x@ s", "column 2: unexpected character '@'"),
        # Unicode whitespace separates tokens and counts toward columns
        (
            _FORMULA_SYMBOLS,
            "\u00a0x\u2003(+)\u3000y\n",
            [("ident", "x", 2), ("sym", "(+)", 4), ("ident", "y", 8)],
        ),
        (_PCTL_SYMBOLS, " \t ", []),
        (_FORMULA_SYMBOLS, "  x \u00a0 $ y", "column 7: unexpected character '$'"),
        (_PCTL_SYMBOLS, "E X\u2028€", "column 5: unexpected character '€'"),
    ],
)
def test_tokenize_table(symbols, text, expected):
    """Token lists, or the error text for input that cannot be tokenized."""
    if isinstance(expected, str):
        with pytest.raises(ParseError) as info:
            _tokenize(text, symbols)
        assert str(info.value) == expected
        return
    got = [(t.kind, t.text, t.column) for t in _tokenize(text, symbols)]
    assert got == [*expected, ("eof", "", len(text) + 1)]


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


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_pctl, "Pmax>=3/2 [X P]", "column 7: probability bound 3/2 outside [0, 1]"),
        (parse_pctl, "Pmin>1.5 [P U Q]", "column 6: probability bound 1.5 outside [0, 1]"),
        (parse_lmu, "1/2*3/2*P", "column 5: coefficient 3/2 outside [0, 1]"),
        (parse_term, "3/2*x", "column 1: coefficient 3/2 outside [0, 1]"),
    ],
)
def test_range_errors_name_what_they_check(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        # `E` and `A` take `X phi` or a bracketed until, never a bracketed next
        ("E[X P]", "column 3: X is a keyword, not a proposition"),
        ("A [X P]", "column 4: X is a keyword, not a proposition"),
        ("E[P U Q", "column 8: expected ']', found 'end of input'"),
        ("E P", "column 3: expected X or [ after a path quantifier, found 'P'"),
        ("Pmax>0 [P]", "column 10: expected U, found ']'"),
        ("Pmax>0 [X P U Q]", "column 13: expected ']', found 'U'"),
    ],
)
def test_pctl_path_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_pctl(text)
    assert str(info.value) == message


def test_lmu_round_trip_random():
    rng = random.Random(23)
    for _ in range(300):
        phi = rand_lmu(rng, depth=rng.randint(0, 4))
        assert parse_lmu(lmu.render_lmu(phi)) == phi


def test_term_round_trip_random():
    rng = random.Random(29)
    for _ in range(300):
        t = rand_term(rng, depth=rng.randint(0, 4), env=("x", "y"))
        assert parse_term(lmu.render_lmu(t)) == t


def test_pctl_round_trip_random():
    rng = random.Random(31)
    for _ in range(300):
        phi = rand_pctl(rng, depth=rng.randint(0, 3))
        assert parse_pctl(pctl.render_pctl(phi)) == phi


def test_translator_var_names_round_trip():
    t = lmu.Mu("x_1@s0", lmu.OPlus(lmu.Var("x_1@s0"), lmu.Var("x_2@s1")))
    assert parse_term(lmu.render_lmu(t)) == t


def test_dual_swaps_connectives():
    assert lmu.dual(lmu.Diamond(lmu.Prop("P"))) == lmu.Box(lmu.CoProp("P"))
    assert lmu.dual(lmu.ONE) is lmu.ZERO and lmu.dual(lmu.ZERO) is lmu.ONE


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

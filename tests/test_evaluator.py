import random
from fractions import Fraction

import pytest

from generators import rand_binder_term, rand_point, rand_term, satisfying_samples
from lmucheck import terms
from lmucheck.evaluator import (
    EvalError,
    Inequality,
    InternalInvariantError,
    LinExpr,
    TermEvaluator,
    cond_holds,
    eval_closed,
    _first_violated_sorted,
    eval_term,
    make_conditions,
    normalize_on,
    render_inequality,
    render_lin_expr,
)
from lmucheck.parser import parse_term

F = Fraction
WORKED_EXAMPLE = "mu x. (nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1)"
WORKED_EXAMPLE_INNER = "nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1"


def interval_of(conditions) -> tuple[Fraction, bool, Fraction, bool]:
    """Tightest (lo, lo_strict, hi, hi_strict) for single-variable conditions."""
    lo, lo_strict = F(-10**9), False
    hi, hi_strict = F(10**9), False
    for ineq in conditions:
        assert len(ineq.coeffs) == 1, "expected conditions in one variable"
        (_, c), a = ineq.coeffs[0], ineq.const
        bound = F(-a, c)
        if c > 0:  # x > bound or x >= bound
            if bound > lo or (bound == lo and ineq.strict):
                lo, lo_strict = bound, ineq.strict
        else:  # x < bound or x <= bound
            if bound < hi or (bound == hi and ineq.strict):
                hi, hi_strict = bound, ineq.strict
    return lo, lo_strict, hi, hi_strict


# -- linear expressions and inequalities --------------------------------------


def test_lin_eval_examples():
    e = LinExpr(((0, F(1, 2)),), F(1, 4))
    assert e.evaluate([F(1, 2)]) == F(1, 2)
    assert LinExpr.constant(F(3, 4)).evaluate([]) == F(3, 4)
    diff = LinExpr.variable(0).subtract(LinExpr.variable(1))
    assert diff.evaluate([F(2, 7), F(2, 7)]) == 0


def test_lin_subst_examples():
    e = LinExpr(((1, F(2)),), F(1))  # 2*x1 + 1
    repl = LinExpr(((0, F(1)),), F(1, 2))  # x0 + 1/2
    assert e.substitute(1, repl) == LinExpr(((0, F(2)),), F(2))
    assert e.substitute(5, repl) == e
    assert LinExpr.variable(0).substitute(0, repl) == repl


def test_inequality_canonical_form():
    half = Inequality.from_linexpr(
        LinExpr(((0, F(2, 3)),), F(-1, 3)), strict=False
    )  # 2/3 x - 1/3 >= 0  ->  2x - 1 >= 0
    assert isinstance(half, Inequality)
    assert half.coeffs == ((0, 2),) and half.const == -1 and not half.strict
    assert Inequality.from_linexpr(LinExpr.constant(F(1)), strict=True) is True
    assert Inequality.from_linexpr(LinExpr.constant(F(0)), strict=True) is False
    assert Inequality.from_linexpr(LinExpr.constant(F(0)), strict=False) is True


def test_cond_holds_and_first_violated():
    x = LinExpr.variable(0)
    ge0 = Inequality.from_linexpr(x, strict=False)
    lt_half = Inequality.from_linexpr(LinExpr.constant(F(1, 2)).subtract(x), strict=True)
    conds = [ge0, lt_half]
    assert cond_holds(conds, [F(1, 4)])
    assert _first_violated_sorted(make_conditions(conds), [F(1, 4)]) is None
    assert not cond_holds(conds, [F(1, 2)])
    assert _first_violated_sorted(make_conditions(conds), [F(1, 2)]) == lt_half
    assert cond_holds([], [F(1, 2)])
    # with several failing, the least in canonical order is reported
    gt_3_4 = Inequality.from_linexpr(x.subtract(LinExpr.constant(F(3, 4))), strict=True)
    both = make_conditions([ge0, lt_half, gt_3_4])
    expected = min((lt_half, gt_3_4), key=Inequality.sort_key)
    assert _first_violated_sorted(both, [F(1, 2)]) == expected


def test_normalize_on_scaling_and_flip():
    two_x_le = Inequality.from_linexpr(
        LinExpr(((1, F(1)),), F(1)).subtract(LinExpr(((0, F(2)),), F(0))), strict=False
    )  # y + 1 - 2x >= 0  ->  x <= (y+1)/2
    assert normalize_on([two_x_le], 0) == ([LinExpr(((1, F(1, 2)),), F(1, 2))], [])
    neg = Inequality.from_linexpr(LinExpr(((0, F(1)),), F(1, 4)), strict=True)
    # x + 1/4 > 0  ->  x > -1/4
    assert normalize_on([neg], 0) == ([], [LinExpr.constant(F(-1, 4))])
    untouched = Inequality.from_linexpr(LinExpr.variable(1), strict=False)
    assert normalize_on([untouched], 0) == ([], [])


def test_normalize_on_candidate_order():
    # uppers: non-strict before strict; lowers: strict before non-strict;
    # within a group, the canonical order of the source inequalities
    x = LinExpr.variable(0)

    def bound_on_x(q, above, strict):
        e = x.subtract(LinExpr.constant(q)) if above else LinExpr.constant(q).subtract(x)
        return Inequality.from_linexpr(e, strict=strict)

    conds = [
        bound_on_x(F(1, 2), above=False, strict=True),  # x < 1/2
        bound_on_x(F(1), above=False, strict=False),  # x <= 1
        bound_on_x(F(3, 4), above=False, strict=False),  # x <= 3/4
        bound_on_x(F(0), above=True, strict=False),  # x >= 0
        bound_on_x(F(1, 4), above=True, strict=True),  # x > 1/4
        bound_on_x(F(1, 8), above=True, strict=False),  # x >= 1/8
    ]
    # canonical order: x <= 3/4, x < 1/2, x <= 1, x >= 0, x > 1/4, x >= 1/8
    uppers, lowers = normalize_on(conds, 0)
    assert uppers == [LinExpr.constant(q) for q in (F(3, 4), F(1), F(1, 2))]
    assert lowers == [LinExpr.constant(q) for q in (F(1, 4), F(0), F(1, 8))]


# -- constructor cases ---------------------------------------------------------


def test_oplus_saturation():
    t = terms.TOPlus(terms.tconst(F(1, 2)), terms.tconst(F(3, 4)))
    result = eval_term(t, {})
    assert result.value == 1
    assert result.expr == LinExpr.constant(F(1))


def test_oplus_exact_sum():
    t = terms.TOPlus(terms.tconst(F(1, 2)), terms.tconst(F(1, 4)))
    assert eval_term(t, {}).value == F(3, 4)


def test_otimes_cases():
    assert eval_closed(terms.TOTimes(terms.tconst(F(1, 2)), terms.tconst(F(3, 4)))) == F(1, 4)
    assert eval_closed(terms.TOTimes(terms.tconst(F(1, 4)), terms.tconst(F(1, 2)))) == 0


def test_join_meet():
    assert eval_closed(terms.TJoin(terms.tconst(F(1, 3)), terms.tconst(F(2, 3)))) == F(2, 3)
    assert eval_closed(terms.TMeet(terms.tconst(F(1, 3)), terms.tconst(F(2, 3)))) == F(1, 3)


def test_fixpoint_identities():
    assert eval_closed(parse_term("mu x. x")) == 0
    assert eval_closed(parse_term("nu x. x")) == 1
    assert eval_closed(parse_term("mu x. (x \\/ 0)")) == 0
    assert eval_closed(terms.tconst(F(3, 7))) == F(3, 7)


def test_linear_fixpoint_solved_exactly():
    # unique solution of x = x/2 + 1/4, unreachable by finite iteration
    assert eval_closed(parse_term("mu x. (1/2*x (+) 1/4*1)")) == F(1, 2)


def test_worked_example_value():
    assert eval_closed(parse_term(WORKED_EXAMPLE)) == 1


@pytest.mark.parametrize(
    "text,expected",
    [
        ("mu x. (x (+) x)", F(0)),
        ("nu x. (x (+) x)", F(1)),
        ("mu x. (x (+) x (+) 1/3*1)", F(1)),  # no fixed point below the cap
        ("nu x. (x (.) x)", F(1)),
        ("mu x. ((x (+) x) (.) 3/4*1)", F(0)),
        ("nu y. (mu x. (x (+) y) (.) 7/8*1)", F(7, 8)),
        # the jump of the inner loop sits above 1/4, so 1/4 is a fixed point
        ("mu x. (nu y. (y (.) (x (+) x (+) 1/8*1)) \\/ 1/4*1)", F(1, 4)),
    ],
)
def test_saturating_coefficients_and_jumps(text, expected):
    # bodies whose expression carries a slot coefficient above 1 exercise
    # the candidate formula with a negative scale factor
    assert eval_closed(parse_term(text)) == expected


def test_worked_example_inner_branches():
    inner = parse_term(WORKED_EXAMPLE_INNER)
    low = eval_term(inner, {"x": F(1, 4)})
    assert low.value == F(1, 2)
    assert low.expr == LinExpr.constant(F(1, 2))
    assert interval_of(low.conditions) == (F(0), False, F(1, 2), True)  # [0, 1/2)

    high = eval_term(inner, {"x": F(3, 4)})
    assert high.value == 1
    assert high.expr == LinExpr.constant(F(1))
    assert interval_of(high.conditions) == (F(1, 2), False, F(1), False)  # [1/2, 1]


def test_shadowed_binder_variables():
    # inner binder shadows the outer one; lexical scoping applies
    t = parse_term("mu x. (x \\/ nu x. x)")
    assert eval_closed(t) == 1


def test_eval_errors():
    with pytest.raises(EvalError, match="does not cover"):
        eval_term(terms.TVar("x"), {})
    with pytest.raises(EvalError, match=r"outside \[0, 1\]"):
        eval_term(terms.TVar("x"), {"x": F(3, 2)})
    with pytest.raises(EvalError, match="not closed"):
        eval_closed(terms.TVar("x"))


def test_iteration_cap_reports_internal_error():
    with pytest.raises(InternalInvariantError, match="iterations"):
        eval_term(parse_term(WORKED_EXAMPLE), {}, max_loop_iterations=1)


def test_extra_point_variables_are_ambient():
    result = eval_term(terms.TVar("x"), {"x": F(1, 2), "y": F(1, 3)})
    assert result.value == F(1, 2)
    assert result.variables == ("x", "y")


def test_evaluator_accumulates_iterations():
    ev = TermEvaluator()
    ev.value(parse_term("mu x. x"), {})
    ev.value(parse_term("nu x. x"), {})
    assert ev.loop_iterations >= 2


def test_constant_runs_no_loop():
    result = eval_term(parse_term("1/2*1 (+) x"), {"x": F(1, 4)})
    assert result.value == F(3, 4)
    assert result.iterations == 0
    assert render_lin_expr(result.expr, result.variables) == "1*x + 1/2"
    # the unsaturated sum x + 1/2 <= 1 and the box 0 <= x <= 1
    assert [render_inequality(i, result.variables) for i in result.conditions] == [
        "-2*x + 1 >= 0",
        "-1*x + 1 >= 0",
        "1*x >= 0",
    ]


def test_determinism_byte_identical():
    t = parse_term(WORKED_EXAMPLE_INNER)
    a = eval_term(t, {"x": F(1, 4)})
    b = eval_term(t, {"x": F(1, 4)})
    assert a == b


# -- property suite (small version; the acceptance suite scales it up) ---------


def test_p1_p2_and_range_random():
    rng = random.Random(53)
    for _ in range(60):
        free = ("x0", "x1")[: rng.randint(0, 2)]
        t = rand_term(rng, depth=rng.randint(1, 3), env=free)
        point = rand_point(rng, list(t.free))
        result = eval_term(t, point)
        assert 0 <= result.value <= 1
        values = [point[n] for n in result.variables]
        assert cond_holds(result.conditions, values)  # (P1)
        for sample in satisfying_samples(rng, result, point, want=4):
            expected = eval_term(t, sample).value
            got = result.expr.evaluate([sample[n] for n in result.variables])
            assert got == expected  # (P2) at a satisfying point


def test_fixpoint_residual_and_witnesses_random():
    rng = random.Random(59)
    for _ in range(40):
        t = rand_binder_term(rng, depth=2, free_vars=("x0",))
        point = rand_point(rng, list(t.free))
        value = eval_term(t, point).value
        at_value = eval_term(t.body, {**point, t.var: value}).value
        assert at_value == value  # the computed value is a fixed point of the body
        is_mu = isinstance(t, terms.TMu)
        for _ in range(3):
            lam = F(rng.randint(1, 15), 16)
            if is_mu and value > 0:
                w = value * lam
                assert eval_term(t.body, {**point, t.var: w}).value > w
            elif not is_mu and value < 1:
                w = value + (1 - value) * lam
                assert eval_term(t.body, {**point, t.var: w}).value < w


def test_monotone_in_the_point_random():
    rng = random.Random(61)
    for _ in range(40):
        t = rand_term(rng, depth=rng.randint(1, 3), env=("x0", "x1"))
        names = list(t.free)
        if not names:
            continue
        lo = rand_point(rng, names)
        hi = {n: lo[n] + (1 - lo[n]) * F(rng.randint(0, 8), 8) for n in names}
        assert eval_term(t, lo).value <= eval_term(t, hi).value

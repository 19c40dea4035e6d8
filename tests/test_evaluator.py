import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from generators import rand_binder_term, rand_point, rand_term, satisfying_samples
from lmucheck import terms
from lmucheck.evaluator import (
    EvalError,
    Inequality,
    InternalInvariantError,
    LinExpr,
    Row,
    TermEvaluator,
    _at_least,
    _box,
    _first_violated_sorted,
    _scaled_point,
    _split,
    cond_holds,
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


# -- the Fraction reference for the integer kernels ----------------------------
#
# The evaluator's linear expressions, inequalities and bound normalization as
# they were written over `Fraction`, before the loop moved to integer rows.
# The integer kernels must agree with them exactly.


def ref_build(coeffs: dict[int, Fraction], const: Fraction) -> LinExpr:
    return LinExpr(tuple(sorted((s, c) for s, c in coeffs.items() if c != 0)), const)


def ref_constant(q) -> LinExpr:
    return LinExpr((), F(q))


def ref_variable(slot: int) -> LinExpr:
    return LinExpr(((slot, F(1)),), F(0))


def ref_coefficient(e: LinExpr, slot: int) -> Fraction:
    return dict(e.coeffs).get(slot, F(0))


def ref_without(e: LinExpr, slot: int) -> LinExpr:
    return LinExpr(tuple((s, c) for s, c in e.coeffs if s != slot), e.const)


def ref_scale(e: LinExpr, q: Fraction) -> LinExpr:
    if q == 0:
        return ref_constant(0)
    return LinExpr(tuple((s, c * q) for s, c in e.coeffs), e.const * q)


def ref_add(e: LinExpr, other: LinExpr) -> LinExpr:
    acc = dict(e.coeffs)
    for s, c in other.coeffs:
        acc[s] = acc.get(s, F(0)) + c
    return ref_build(acc, e.const + other.const)


def ref_negate(e: LinExpr) -> LinExpr:
    return ref_scale(e, F(-1))


def ref_subtract(e: LinExpr, other: LinExpr) -> LinExpr:
    return ref_add(e, ref_negate(other))


def ref_substitute(e: LinExpr, slot: int, repl: LinExpr) -> LinExpr:
    c = ref_coefficient(e, slot)
    if c == 0:
        return e
    return ref_add(ref_without(e, slot), ref_scale(repl, c))


def ref_from_linexpr(e: LinExpr, strict: bool) -> "Inequality | bool":
    if not e.coeffs:
        return e.const > 0 if strict else e.const >= 0
    denom = e.const.denominator
    for _, c in e.coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for _, c in e.coeffs]
    const = int(e.const * denom)
    g = abs(const)
    for v in ints:
        g = gcd(g, abs(v))
    coeffs = tuple((s, v // g) for (s, _), v in zip(e.coeffs, ints))
    return Inequality(coeffs, const // g, strict)


def ref_as_linexpr(ineq: Inequality) -> LinExpr:
    return LinExpr(tuple((s, F(c)) for s, c in ineq.coeffs), F(ineq.const))


def ref_holds(ineq: Inequality, values) -> bool:
    lhs = ref_as_linexpr(ineq).evaluate(values)
    return lhs > 0 if ineq.strict else lhs >= 0


def ref_ineq_substitute(ineq: Inequality, slot: int, repl: LinExpr) -> "Inequality | bool":
    if all(s != slot for s, _ in ineq.coeffs):
        return ineq
    return ref_from_linexpr(ref_substitute(ref_as_linexpr(ineq), slot, repl), ineq.strict)


def ref_normalize_on(conditions, slot: int) -> tuple[list[LinExpr], list[LinExpr]]:
    upper_nonstrict, upper_strict, lower_strict, lower_nonstrict = [], [], [], []
    for ineq in sorted(conditions, key=lambda i: (i.coeffs, i.const, i.strict)):
        c = ref_coefficient(ref_as_linexpr(ineq), slot)
        if c == 0:
            continue
        bound = ref_scale(ref_without(ref_as_linexpr(ineq), slot), F(-1) / c)
        if c > 0:
            (lower_strict if ineq.strict else lower_nonstrict).append(bound)
        else:
            (upper_strict if ineq.strict else upper_nonstrict).append(bound)
    return upper_nonstrict + upper_strict, lower_strict + lower_nonstrict


def row_of(e: LinExpr) -> Row:
    """The integer row of a rational expression, independently of `Row.make`."""
    den = lcm(e.const.denominator, *(c.denominator for _, c in e.coeffs))
    nums = [int(c * den) for _, c in e.coeffs]
    g = gcd(den, int(e.const * den), *nums)
    coeffs = tuple((s, n // g) for (s, _), n in zip(e.coeffs, nums))
    return Row(coeffs, int(e.const * den) // g, den // g)


def ineq_of(e: LinExpr, strict: bool) -> "Inequality | bool":
    row = row_of(e)
    return Inequality.canonical(row.coeffs, row.const, strict)


def value_at(row: Row, values) -> Fraction:
    nums, den = _scaled_point(values)
    return F(row.numerator_at(nums, den), row.den * den)


def same(got, expected) -> None:
    """Equal and of the same kind: an inequality, or the same truth value."""
    assert type(got) is type(expected) and got == expected, (got, expected)


RATIONALS = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
UNIT = st.builds(lambda n, d: F(min(n, d), d), st.integers(0, 12), st.integers(1, 12))
SLOTS = st.integers(0, 3)
EXPRS = st.builds(ref_build, st.dictionaries(SLOTS, RATIONALS, max_size=4), RATIONALS)
POINTS = st.lists(UNIT, min_size=4, max_size=4)
KERNEL_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)


@KERNEL_SETTINGS
@given(EXPRS, EXPRS, UNIT, SLOTS, POINTS)
def test_rows_agree_with_fraction_reference(e1, e2, q, slot, point):
    r1, r2 = row_of(e1), row_of(e2)
    for row in (r1, r1.plus(r2), r1.plus(r2, -1), r1.scale(q), r1.substitute(slot, r2)):
        assert row.den > 0 and gcd(row.den, row.const, *(c for _, c in row.coeffs)) == 1
    assert r1.linexpr() == e1
    assert r1.plus(r2).linexpr() == ref_add(e1, e2)
    assert r1.plus(r2, -1).linexpr() == ref_subtract(e1, e2)
    assert r1.scale(q).linexpr() == ref_scale(e1, q)
    assert r1.substitute(slot, r2).linexpr() == ref_substitute(e1, slot, e2)
    assert F(_split(r1.coeffs, slot)[0], r1.den) == ref_coefficient(e1, slot)
    assert value_at(r1, point) == e1.evaluate(point)


@KERNEL_SETTINGS
@given(EXPRS, EXPRS, st.booleans(), SLOTS, POINTS)
@example(ref_build({0: F(1)}, F(-1, 2)), ref_constant(F(1, 2)), True, 0, [F(0)] * 4)  # -> False
@example(ref_build({0: F(1)}, F(-1, 2)), ref_constant(F(1, 2)), False, 0, [F(0)] * 4)  # -> True
@example(ref_build({0: F(-2), 1: F(1)}, F(0)), ref_variable(1), False, 0, [F(1)] * 4)
def test_inequalities_agree_with_fraction_reference(e, repl, strict, slot, point):
    ineq = ineq_of(e, strict)
    same(ineq, ref_from_linexpr(e, strict))
    same(_at_least(row_of(e), row_of(repl)), ref_from_linexpr(ref_subtract(e, repl), False))
    if isinstance(ineq, Inequality):
        same(ineq.substitute(slot, row_of(repl)), ref_ineq_substitute(ineq, slot, repl))
        same(ineq.negation(), ref_from_linexpr(ref_negate(e), not strict))
        nums, den = _scaled_point(point)
        assert ineq.holds(nums, den) == ref_holds(ineq, point)
        assert ineq.negation().holds(nums, den) == (not ref_holds(ineq, point))
        assert hash(ineq) == hash(ref_from_linexpr(e, strict))


@KERNEL_SETTINGS
@given(st.lists(st.tuples(EXPRS, st.booleans()), max_size=8), SLOTS)
def test_normalize_on_agrees_with_fraction_reference(sources, slot):
    conds = make_conditions(
        i for i in (ref_from_linexpr(e, strict) for e, strict in sources) if isinstance(i, Inequality)
    )
    uppers, lowers = normalize_on(conds, slot)
    ref_uppers, ref_lowers = ref_normalize_on(conds, slot)
    assert [r.linexpr() for r in uppers] == ref_uppers
    assert [r.linexpr() for r in lowers] == ref_lowers
    assert all(r == row_of(r.linexpr()) for r in uppers + lowers)  # already in lowest terms


def test_box_conditions_match_reference():
    expected = make_conditions(
        ineq
        for j in range(3)
        for ineq in (
            ref_from_linexpr(ref_variable(j), strict=False),
            ref_from_linexpr(ref_subtract(ref_constant(1), ref_variable(j)), strict=False),
        )
    )
    assert _box(3) == expected
    assert _box(3) is _box(3)  # built once per scope size


# -- linear expressions and inequalities --------------------------------------


def test_lin_eval_examples():
    e = row_of(LinExpr(((0, F(1, 2)),), F(1, 4)))
    assert value_at(e, [F(1, 2)]) == F(1, 2)
    assert value_at(row_of(ref_constant(F(3, 4))), []) == F(3, 4)
    diff = row_of(ref_variable(0)).plus(row_of(ref_variable(1)), -1)
    assert value_at(diff, [F(2, 7), F(2, 7)]) == 0


def test_lin_subst_examples():
    e = row_of(LinExpr(((1, F(2)),), F(1)))  # 2*x1 + 1
    repl = row_of(LinExpr(((0, F(1)),), F(1, 2)))  # x0 + 1/2
    assert e.substitute(1, repl) == row_of(LinExpr(((0, F(2)),), F(2)))
    assert e.substitute(5, repl) == e
    assert row_of(ref_variable(0)).substitute(0, repl) == repl


def test_inequality_canonical_form():
    half = ineq_of(LinExpr(((0, F(2, 3)),), F(-1, 3)), strict=False)
    # 2/3 x - 1/3 >= 0  ->  2x - 1 >= 0
    assert isinstance(half, Inequality)
    assert half.coeffs == ((0, 2),) and half.const == -1 and not half.strict
    assert ineq_of(ref_constant(F(1)), strict=True) is True
    assert ineq_of(ref_constant(F(0)), strict=True) is False
    assert ineq_of(ref_constant(F(0)), strict=False) is True


def test_cond_holds_and_first_violated():
    x = ref_variable(0)
    ge0 = ineq_of(x, strict=False)
    lt_half = ineq_of(ref_subtract(ref_constant(F(1, 2)), x), strict=True)
    conds = [ge0, lt_half]
    assert cond_holds(conds, [F(1, 4)])
    assert _first_violated_sorted(make_conditions(conds), *_scaled_point([F(1, 4)])) is None
    assert not cond_holds(conds, [F(1, 2)])
    assert _first_violated_sorted(make_conditions(conds), *_scaled_point([F(1, 2)])) == lt_half
    assert cond_holds([], [F(1, 2)])
    # with several failing, the least in canonical order is reported
    gt_3_4 = ineq_of(ref_subtract(x, ref_constant(F(3, 4))), strict=True)
    both = make_conditions([ge0, lt_half, gt_3_4])
    expected = make_conditions([lt_half, gt_3_4])[0]
    assert _first_violated_sorted(both, *_scaled_point([F(1, 2)])) == expected


def test_normalize_on_scaling_and_flip():
    two_x_le = ineq_of(
        ref_subtract(LinExpr(((1, F(1)),), F(1)), LinExpr(((0, F(2)),), F(0))), strict=False
    )  # y + 1 - 2x >= 0  ->  x <= (y+1)/2
    assert normalize_on([two_x_le], 0) == ([row_of(LinExpr(((1, F(1, 2)),), F(1, 2)))], [])
    neg = ineq_of(LinExpr(((0, F(1)),), F(1, 4)), strict=True)
    # x + 1/4 > 0  ->  x > -1/4
    assert normalize_on([neg], 0) == ([], [row_of(ref_constant(F(-1, 4)))])
    untouched = ineq_of(ref_variable(1), strict=False)
    assert normalize_on([untouched], 0) == ([], [])


def test_normalize_on_candidate_order():
    # uppers: non-strict before strict; lowers: strict before non-strict;
    # within a group, the canonical order of the source inequalities
    x = ref_variable(0)

    def bound_on_x(q, above, strict):
        e = ref_subtract(x, ref_constant(q)) if above else ref_subtract(ref_constant(q), x)
        return ineq_of(e, strict=strict)

    conds = [
        bound_on_x(F(1, 2), above=False, strict=True),  # x < 1/2
        bound_on_x(F(1), above=False, strict=False),  # x <= 1
        bound_on_x(F(3, 4), above=False, strict=False),  # x <= 3/4
        bound_on_x(F(0), above=True, strict=False),  # x >= 0
        bound_on_x(F(1, 4), above=True, strict=True),  # x > 1/4
        bound_on_x(F(1, 8), above=True, strict=False),  # x >= 1/8
    ]
    # canonical order: x <= 3/4, x < 1/2, x <= 1, x >= 0, x > 1/4, x >= 1/8
    uppers, lowers = normalize_on(make_conditions(conds), 0)
    assert uppers == [row_of(ref_constant(q)) for q in (F(3, 4), F(1), F(1, 2))]
    assert lowers == [row_of(ref_constant(q)) for q in (F(1, 4), F(0), F(1, 8))]


# -- constructor cases ---------------------------------------------------------


def test_oplus_saturation():
    t = terms.TOPlus(terms.tconst(F(1, 2)), terms.tconst(F(3, 4)))
    result = eval_term(t, {})
    assert result.value == 1
    assert result.expr == LinExpr((), F(1))


def test_oplus_exact_sum():
    t = terms.TOPlus(terms.tconst(F(1, 2)), terms.tconst(F(1, 4)))
    assert eval_term(t, {}).value == F(3, 4)


def test_otimes_cases():
    assert eval_term(terms.TOTimes(terms.tconst(F(1, 2)), terms.tconst(F(3, 4))), {}).value == F(1, 4)
    assert eval_term(terms.TOTimes(terms.tconst(F(1, 4)), terms.tconst(F(1, 2))), {}).value == 0


def test_join_meet():
    assert eval_term(terms.TJoin(terms.tconst(F(1, 3)), terms.tconst(F(2, 3))), {}).value == F(2, 3)
    assert eval_term(terms.TMeet(terms.tconst(F(1, 3)), terms.tconst(F(2, 3))), {}).value == F(1, 3)


def test_fixpoint_identities():
    assert eval_term(parse_term("mu x. x"), {}).value == 0
    assert eval_term(parse_term("nu x. x"), {}).value == 1
    assert eval_term(parse_term("mu x. (x \\/ 0)"), {}).value == 0
    assert eval_term(terms.tconst(F(3, 7)), {}).value == F(3, 7)


def test_linear_fixpoint_solved_exactly():
    # unique solution of x = x/2 + 1/4, unreachable by finite iteration
    assert eval_term(parse_term("mu x. (1/2*x (+) 1/4*1)"), {}).value == F(1, 2)


def test_worked_example_value():
    assert eval_term(parse_term(WORKED_EXAMPLE), {}).value == 1


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
    assert eval_term(parse_term(text), {}).value == expected


def test_worked_example_inner_branches():
    inner = parse_term(WORKED_EXAMPLE_INNER)
    low = eval_term(inner, {"x": F(1, 4)})
    assert low.value == F(1, 2)
    assert low.expr == LinExpr((), F(1, 2))
    assert interval_of(low.conditions) == (F(0), False, F(1, 2), True)  # [0, 1/2)

    high = eval_term(inner, {"x": F(3, 4)})
    assert high.value == 1
    assert high.expr == LinExpr((), F(1))
    assert interval_of(high.conditions) == (F(1, 2), False, F(1), False)  # [1/2, 1]


def test_shadowed_binder_variables():
    # inner binder shadows the outer one; lexical scoping applies
    t = parse_term("mu x. (x \\/ nu x. x)")
    assert eval_term(t, {}).value == 1


def test_eval_errors():
    with pytest.raises(EvalError, match="does not cover"):
        eval_term(terms.TVar("x"), {})
    with pytest.raises(EvalError, match=r"outside \[0, 1\]"):
        eval_term(terms.TVar("x"), {"x": F(3, 2)})


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


def test_tied_bounds_keep_the_first_candidate():
    # two candidate bounds on a loop variable have equal values at this point;
    # the loop jumps to the first in candidate order, which fixes the region
    # below (the last tied candidate gives 22 conditions instead of 18)
    t = parse_term(
        "nu w. (((x1 \\/ x2) (+) 0*x1) (.) (mu b1. (b1) (+) x0 (.) x2) (.) "
        "(((x1 /\\ x1) (+) (w /\\ x2)) (.) ((w \\/ w) /\\ x0 (+) w)))"
    )
    result = eval_term(t, {"x0": F(1), "x1": F(1), "x2": F(1, 2)})
    assert result.value == 0 and result.expr == LinExpr((), F(0))
    assert [render_inequality(i, result.variables) for i in result.conditions] == [
        "-1*x0 + 1 >= 0",
        "-1*x0 + -2*x1 + -1*x2 + 4 >= 0",
        "-1*x0 + -1*x1 + -2*x2 + 3 >= 0",
        "-1*x0 + -1*x1 + -1*x2 + 3 >= 0",
        "-1*x0 + -1*x1 + -1*x2 + 3 > 0",
        "-1*x0 + -1*x2 + 2 >= 0",
        "1*x0 + -1 >= 0",
        "1*x0 >= 0",
        "1*x0 + 1*x1 + 1*x2 + -2 >= 0",
        "1*x0 + 1*x2 + -1 >= 0",
        "-1*x1 + 1 >= 0",
        "-1*x1 + -1*x2 + 2 >= 0",
        "1*x1 + -1 >= 0",
        "1*x1 >= 0",
        "1*x1 + -1*x2 >= 0",
        "1*x1 + 1*x2 + -1 >= 0",
        "-1*x2 + 1 >= 0",
        "1*x2 >= 0",
    ]


def test_loop_exit_substitutes_the_loop_variable_box():
    # internal condition sets leave the box out, and a loop adds its own
    # variable's back before substituting at exit: here the inner loop's
    # 0 <= z <= 1 becomes `1*x0 + 1 >= 0` and `1*x0 + 1*x1 >= 0`, which
    # neither the body nor the returned box of x0 and x1 contains
    t = parse_term("nu y. (mu z. (1/2*z (+) 1/4*y (+) 1/4*x0) /\\ x1)")
    result = eval_term(t, {"x0": F(1, 3), "x1": F(1, 2)})
    assert (result.value, result.iterations) == (F(1, 3), 3)
    assert render_lin_expr(result.expr, result.variables) == "1*x0"
    assert [render_inequality(i, result.variables) for i in result.conditions] == [
        "-3*x0 + 4 >= 0",
        "-1*x0 + 1 >= 0",
        "-1*x0 + 2 >= 0",
        "-1*x0 + 3 >= 0",
        "-1*x0 + 4 >= 0",
        "-1*x0 + -2*x1 + 4 >= 0",
        "-1*x0 + -1*x1 + 2 >= 0",
        "-1*x0 + -1*x1 + 4 >= 0",
        "-1*x0 + 1*x1 >= 0",
        "-1*x0 + 1*x1 > 0",
        "-1*x0 + 2*x1 >= 0",
        "1*x0 >= 0",
        "1*x0 + 1 >= 0",
        "1*x0 + -2*x1 + 1 >= 0",
        "1*x0 + 1*x1 >= 0",
        "-1*x1 + 1 >= 0",
        "-1*x1 + 4 >= 0",
        "1*x1 >= 0",
    ]


def test_out_of_range_approximation_is_caught_on_a_cache_hit():
    # a cached region leaves the box out, so its acceptance test no longer
    # asserts that a loop variable lies in [0, 1]; the loop checks its
    # approximation where it sets it. Here the nu loop shares its body with
    # the mu loop evaluated first, and the cached body region z <= 3/2
    # accepts the corrupted approximation z = 3/2.
    class Corrupting(TermEvaluator):
        armed = False

        def _set_value(self, slot, expr):
            super()._set_value(slot, expr)
            if self.armed:
                self.armed = False
                self._values[slot] = (3, 2)
                self._rescale()

    ev = Corrupting()
    assert ev.value(parse_term("mu z. (1/2*z (+) 1/4*1)"), {}) == F(1, 2)
    ev.armed = True
    with pytest.raises(InternalInvariantError, match=r"left \[0, 1\]"):
        ev.value(parse_term("nu z. (1/2*z (+) 1/4*1)"), {})


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

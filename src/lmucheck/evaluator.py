"""Exact evaluation of fixed-point terms at rational points.

Evaluating a term t(x1..xn) at a point r in [0,1]^n produces a conditioned
linear expression, a pair (C, e) of a finite inequality set and a linear
expression over x1..xn, such that

  (P1) every inequality in C holds at r, and
  (P2) every real point s satisfying C lies in [0,1]^n and has e(s) = t(s).

The value t(r) is then e(r). An inequality `expr > 0` or `expr >= 0` is a
plain tuple (coefficients, constant, strict) with integer numerators scaled
to gcd 1, so equal inequalities are equal tuples: a condition set is
deduplicated as a set and sorted in tuple order, its canonical order.

All arithmetic inside the evaluator is on integers. A linear expression is
a `Row`: integer numerators over one positive common denominator, with the
gcd of all numerators and the denominator equal to 1, so each rational
expression has exactly one row. The point is held as integer numerators
over one common denominator, rescaled whenever a scope value changes, and
an inequality is tested against it with integer products only. `Fraction`
appears only at the API boundary: the input point, and the `value` and
`expr` (a `LinExpr`) of an `EvalResult`.

(P2) needs the box 0 <= x <= 1 of every variable in scope. The box holds at
every point the evaluator reads, so its internal condition sets leave it
out, and only two places add it back: a loop adds its own variable's box
where it reads bounds and substitutes, and `evaluate` adds the whole box to
every result it returns. A constant or a variable is its own expression
under the empty set; no loop runs for it. Other non-binder constructors
combine the recursive results and record which branch the point selected
(which side of a max/min won, whether a truncated sum saturated). A binder
`mu x.t'` runs the approximation loop: starting from the constant 0 (1 for
`nu`), repeatedly evaluate t' at the current approximation d; writing the
resulting expression as q*x + rest, the candidate fixed point is
f = rest/(1-q) when q != 1. If the body's conditions accept f, the loop
exits with f; otherwise the first violated inequality (negated, with f
substituted) joins the carried constraint set D and the approximation jumps
to the tightest upper bound C places on x (the greatest lower bound, for
`nu`). When q = 1, the loop exits with d itself if rest vanishes at the
point, else the sign of rest drives the same next-approximation step.
Termination is guaranteed; the iteration cap only guards against
implementation bugs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import terms
from .rationals import format_rational

__all__ = [
    "EvalError",
    "InternalInvariantError",
    "LinExpr",
    "Row",
    "Inequality",
    "EvalResult",
    "cond_holds",
    "normalize_on",
    "make_conditions",
    "TermEvaluator",
    "eval_term",
    "render_inequality",
    "render_lin_expr",
]

DEFAULT_LOOP_CAP = 1_000_000

Coeffs = tuple[tuple[int, int], ...]  # (slot, integer coefficient), slot-ascending, no zeros


class EvalError(ValueError):
    """Bad evaluation input (uncovered variable, value outside [0, 1])."""


class InternalInvariantError(RuntimeError):
    """A guaranteed invariant failed; indicates a bug, not a semantic outcome."""


@dataclass(frozen=True)
class LinExpr:
    """Rational linear expression over variable slots: the result form of a row."""

    coeffs: tuple[tuple[int, Fraction], ...]  # slot-ascending, zero coefficients omitted
    const: Fraction

    def evaluate(self, values: Sequence[Fraction] | Mapping[int, Fraction]) -> Fraction:
        return sum((c * values[s] for s, c in self.coeffs), self.const)


def _numerator(coeffs: Coeffs, const: int, nums: Sequence[int], den: int) -> int:
    """`coeffs.x + const` at the point x = nums/den, times den."""
    total = const * den
    for s, c in coeffs:
        total += c * nums[s]
    return total


def _combine(a: int, xs: Coeffs, b: int, ys: Coeffs) -> Coeffs:
    """a*xs + b*ys for nonzero a and b, zero sums dropped."""
    if not ys:
        return xs if a == 1 else tuple((s, a * c) for s, c in xs)
    acc = {s: a * c for s, c in xs}
    for s, c in ys:
        acc[s] = acc.get(s, 0) + b * c
    return tuple(sorted(item for item in acc.items() if item[1]))


def _split(coeffs: Coeffs, slot: int) -> tuple[int, Coeffs]:
    """The slot's coefficient (0 if absent) and the other coefficients."""
    for i, (s, c) in enumerate(coeffs):
        if s == slot:
            return c, coeffs[:i] + coeffs[i + 1 :]
    return 0, coeffs


def _substituted(c: int, rest: Coeffs, const: int, repl: "Row") -> tuple[Coeffs, int]:
    """`c*x + rest + const` with x := p/d, times d: `d*(rest + const) + c*p`."""
    d = repl.den
    return _combine(d, rest, c, repl.coeffs), d * const + c * repl.const


class Row(NamedTuple):
    """Linear expression `(sum c*x_slot + const) / den` on integers: den > 0
    and gcd(all numerators, den) = 1, so equal expressions are equal rows."""

    coeffs: Coeffs
    const: int
    den: int

    @staticmethod
    def make(coeffs: Coeffs, const: int, den: int) -> "Row":
        """Normalize numerators over a nonzero denominator."""
        if den < 0:
            coeffs, const, den = tuple((s, -c) for s, c in coeffs), -const, -den
        g = gcd(den, const, *[c for _, c in coeffs])
        if g != 1:
            coeffs, const, den = tuple((s, c // g) for s, c in coeffs), const // g, den // g
        return Row(coeffs, const, den)

    def plus(self, other: "Row", sign: int = 1) -> "Row":
        """self + other, or self - other with sign -1."""
        d1, d2 = self.den, other.den
        coeffs = _combine(d2, self.coeffs, sign * d1, other.coeffs)
        return Row.make(coeffs, d2 * self.const + sign * d1 * other.const, d1 * d2)

    def scale(self, q: Fraction) -> "Row":
        if q == 0:
            return ZERO
        a = q.numerator
        return Row.make(tuple((s, a * c) for s, c in self.coeffs), a * self.const, self.den * q.denominator)

    def substitute(self, slot: int, repl: "Row") -> "Row":
        c, rest = _split(self.coeffs, slot)
        if c == 0:
            return self
        return Row.make(*_substituted(c, rest, self.const, repl), self.den * repl.den)

    def numerator_at(self, nums: Sequence[int], den: int) -> int:
        """The value at the point nums/den, times self.den * den."""
        return _numerator(self.coeffs, self.const, nums, den)

    def linexpr(self) -> LinExpr:
        d = self.den
        return LinExpr(tuple((s, Fraction(c, d)) for s, c in self.coeffs), Fraction(self.const, d))


ZERO = Row((), 0, 1)
ONE = Row((), 1, 1)


class Inequality(NamedTuple):
    """Canonical `expr > 0` (strict) or `expr >= 0` over integer coefficients.

    Tuple order (coefficients, then constant, then strictness) is the
    canonical order of condition sets.
    """

    coeffs: Coeffs
    const: int
    strict: bool

    @staticmethod
    def canonical(coeffs: Coeffs, const: int, strict: bool) -> "Inequality | bool":
        """`coeffs.x + const > 0` (or `>= 0`) divided by the gcd of its
        numerators; a ground inequality becomes its truth value."""
        if not coeffs:
            return const > 0 if strict else const >= 0
        g = gcd(const, *[c for _, c in coeffs])
        if g != 1:
            coeffs, const = tuple((s, c // g) for s, c in coeffs), const // g
        return Inequality(coeffs, const, strict)

    def holds(self, nums: Sequence[int], den: int) -> bool:
        """Sign test at the point nums/den (den > 0)."""
        total = _numerator(self.coeffs, self.const, nums, den)
        return total > 0 if self.strict else total >= 0

    def substitute(self, slot: int, repl: Row) -> "Inequality | bool":
        """`c*x + rest ? 0` with x := p/d becomes `d*rest + c*p ? 0`."""
        c, rest = _split(self.coeffs, slot)
        if c == 0:
            return self
        return Inequality.canonical(*_substituted(c, rest, self.const, repl), self.strict)

    def negation(self) -> "Inequality":
        coeffs = tuple((s, -c) for s, c in self.coeffs)
        return Inequality(coeffs, -self.const, not self.strict)


def _at_least(a: Row, b: Row) -> "Inequality | bool":
    """The canonical form of `a - b >= 0`."""
    coeffs = _combine(b.den, a.coeffs, -a.den, b.coeffs)
    return Inequality.canonical(coeffs, b.den * a.const - a.den * b.const, False)


def make_conditions(items: Iterable[Inequality]) -> tuple[Inequality, ...]:
    """Deduplicated, canonically ordered condition set."""
    return tuple(sorted(set(items)))


def _scaled_point(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """A rational point as integer numerators over one common denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def cond_holds(conditions: Iterable[Inequality], values: Sequence[Fraction]) -> bool:
    nums, den = _scaled_point(values)
    return all(ineq.holds(nums, den) for ineq in conditions)


def _first_violated_sorted(
    conditions: Iterable[Inequality], nums: Sequence[int], den: int
) -> Inequality | None:
    """Least failing inequality of a canonically ordered set, None if all hold."""
    for ineq in conditions:
        if not ineq.holds(nums, den):
            return ineq
    return None


def _slot_box(slot: int) -> tuple[Inequality, Inequality]:
    """1 - x >= 0 and x >= 0, in canonical order: what a loop adds for its own slot."""
    return Inequality(((slot, -1),), 1, False), Inequality(((slot, 1),), 0, False)


@functools.cache
def _box(scope: int) -> tuple[Inequality, ...]:
    """0 <= x_j <= 1 for every slot in scope: what `evaluate` adds to every
    result for (P2)."""
    return make_conditions(ineq for slot in range(scope) for ineq in _slot_box(slot))


def normalize_on(conditions: Iterable[Inequality], slot: int) -> tuple[list[Row], list[Row]]:
    """Upper and lower bounds the conditions place on one variable.

    Each inequality mentioning the slot is solved for it, flipping on sign.
    Uppers list non-strict bounds before strict ones, lowers strict before
    non-strict, each group in the order of the conditions, which must be
    canonical; the loop breaks ties by this order.
    """
    upper_nonstrict: list[Row] = []
    upper_strict: list[Row] = []
    lower_strict: list[Row] = []
    lower_nonstrict: list[Row] = []
    for ineq in conditions:
        c, rest = _split(ineq.coeffs, slot)
        if c == 0:
            continue
        # c*x + rest ? 0 solves to x ? -rest/c; the numerators of a canonical
        # inequality have gcd 1, so the bound needs no further reduction
        if c > 0:
            bound = Row(tuple((s, -v) for s, v in rest), -ineq.const, c)
            (lower_strict if ineq.strict else lower_nonstrict).append(bound)
        else:
            bound = Row(rest, ineq.const, -c)
            (upper_strict if ineq.strict else upper_nonstrict).append(bound)
    return upper_nonstrict + upper_strict, lower_strict + lower_nonstrict


@dataclass(frozen=True)
class EvalResult:
    """Conditioned linear expression for a term at a point, plus its exact value.

    `variables[i]` names slot i; conditions and expression only mention the
    point's variables (bound slots are eliminated before a loop returns).
    """

    conditions: tuple[Inequality, ...]
    expr: LinExpr
    value: Fraction
    variables: tuple[str, ...]
    iterations: int


class TermEvaluator:
    """Evaluates terms; accumulates loop-iteration counts across calls.

    The instance keeps its region caches between calls, so evaluating
    several terms that share subterms, as the per-state translations do,
    costs far less than evaluating them in isolation.
    """

    def __init__(self, max_loop_iterations: int = DEFAULT_LOOP_CAP):
        self.max_loop_iterations = max_loop_iterations
        self.loop_iterations = 0
        self._cache: dict[tuple, list[tuple[tuple[Inequality, ...], Row]]] = {}

    def evaluate(self, term: terms.Term, point: Mapping[str, Fraction]) -> EvalResult:
        missing = set(term.free) - set(point)
        if missing:
            raise EvalError(f"point does not cover variables {sorted(missing)}")
        names = tuple(sorted(point))
        start_iterations = self.loop_iterations
        self._values: list[tuple[int, int]] = []  # (numerator, denominator) per slot
        self._names: list[str] = []
        env: dict[str, int] = {}
        for name in names:
            if isinstance(point[name], float):
                raise EvalError(f"{name} = {point[name]!r} is a float, not an exact rational")
            v = Fraction(point[name])
            if not (0 <= v <= 1):
                raise EvalError(f"{name} = {format_rational(v)} outside [0, 1]")
            env[name] = len(self._values)
            self._values.append((v.numerator, v.denominator))
            self._names.append(name)
        self._rescale()
        conditions, expr = self._eval(term, env)
        n_free = len(names)
        conditions = make_conditions([*conditions, *_box(n_free)])
        if any(s >= n_free for ineq in conditions for s, _ in ineq.coeffs) or any(
            s >= n_free for s, _ in expr.coeffs
        ):
            raise InternalInvariantError("bound slot escaped from a fixed-point loop")
        return EvalResult(
            conditions=conditions,
            expr=expr.linexpr(),
            value=Fraction(expr.numerator_at(self._nums, self._den), expr.den * self._den),
            variables=names,
            iterations=self.loop_iterations - start_iterations,
        )

    def value(self, term: terms.Term, point: Mapping[str, Fraction]) -> Fraction:
        return self.evaluate(term, point).value

    # the point: `_values` holds each slot's value in lowest terms, and
    # `_nums`/`_den` the same values over their least common denominator,
    # which is what every inequality test and row evaluation reads

    def _rescale(self) -> None:
        den = lcm(*(q for _, q in self._values))
        self._nums = [p * (den // q) for p, q in self._values]
        self._den = den

    def _set_value(self, slot: int, expr: Row) -> None:
        num = expr.numerator_at(self._nums, self._den)
        den = expr.den * self._den
        g = gcd(num, den)
        self._values[slot] = (num // g, den // g)
        self._rescale()

    # internal recursion; (P1) is asserted for every newly built inequality:
    # cheaply at constructor nodes (the children were verified when built, at
    # the same point) and in full wherever a loop result enters the tree

    def _witnessed(
        self, c1, c2, witness: "Inequality | bool", expr: Row
    ) -> tuple[tuple[Inequality, ...], Row]:
        if witness is False:
            raise InternalInvariantError("branch witness is false at the evaluation point")
        if witness is True:
            # a child's set is canonical, so a union that adds nothing is that set
            if not c2 or c1 is c2:
                return c1, expr
            if not c1:
                return c2, expr
            return make_conditions([*c1, *c2]), expr
        if not witness.holds(self._nums, self._den):
            raise InternalInvariantError(
                f"branch witness violated: {render_inequality(witness, self._names)}"
            )
        return make_conditions([*c1, *c2, witness]), expr

    def _eval(self, term: terms.Term, env: dict[str, int]) -> tuple[tuple[Inequality, ...], Row]:
        if isinstance(term, terms.TVar):
            slot = env.get(term.name)
            if slot is None:
                raise EvalError(f"unbound term variable {term.name!r}")
            if any(not (0 <= n <= self._den) for n in self._nums):
                raise InternalInvariantError("a scope variable left [0, 1]")
            return (), Row(((slot, 1),), 0, 1)
        if isinstance(term, terms.TConst):
            return (), ONE if term.value else ZERO
        # every result this evaluation ever produced for a subterm satisfies
        # (P2) universally, so the results collected per (node, scope, slot
        # assignment) form part of a representing system: whenever a previous
        # result's conditions accept the current point it is the answer here
        # too, and the acceptance test doubles as the (P1) assertion (the box
        # it leaves out is asserted where a loop sets its variable). Shared
        # subterms and the sweeps of enclosing loops revisit nodes constantly,
        # which makes this cache the difference between feasible and hopeless.
        # The term implies the names of its free variables; their slots vary.
        key = (term, len(self._values), *map(env.__getitem__, term.free))
        basis = self._cache.setdefault(key, [])
        nums, den = self._nums, self._den
        for i, (conds, expr) in enumerate(basis):
            if _first_violated_sorted(conds, nums, den) is None:
                if i:  # move-to-front; deterministic for identical runs
                    basis.insert(0, basis.pop(i))
                return conds, expr
        result = self._eval_raw(term, env)
        basis.append(result)
        return result

    def _eval_raw(self, term: terms.Term, env: dict[str, int]) -> tuple[tuple[Inequality, ...], Row]:
        if isinstance(term, terms.TScalar):
            conds, expr = self._eval(term.body, env)
            return conds, expr.scale(term.factor)
        if isinstance(term, (terms.TJoin, terms.TMeet)):
            c1, e1 = self._eval(term.left, env)
            c2, e2 = self._eval(term.right, env)
            # compare the values n1/(d1*D) and n2/(d2*D) by cross-multiplying
            v1 = e1.numerator_at(self._nums, self._den) * e2.den
            v2 = e2.numerator_at(self._nums, self._den) * e1.den
            prefer_left = v1 >= v2 if isinstance(term, terms.TJoin) else v1 <= v2
            winner, loser = (e1, e2) if prefer_left else (e2, e1)
            if isinstance(term, terms.TJoin):
                witness = _at_least(winner, loser)
            else:
                witness = _at_least(loser, winner)
            return self._witnessed(c1, c2, witness, winner)
        if isinstance(term, (terms.TOPlus, terms.TOTimes)):
            c1, e1 = self._eval(term.left, env)
            c2, e2 = self._eval(term.right, env)
            total = e1.plus(e2)
            # the sign of total - 1 at the point, over the denominator total.den * D
            excess = total.numerator_at(self._nums, self._den) - total.den * self._den
            if isinstance(term, terms.TOPlus):
                if excess <= 0:
                    witness, result = _at_least(ONE, total), total
                else:
                    witness, result = _at_least(total, ONE), ONE
            else:
                if excess >= 0:
                    witness, result = _at_least(total, ONE), total.plus(ONE, -1)
                else:
                    witness, result = _at_least(ONE, total), ZERO
            return self._witnessed(c1, c2, witness, result)
        if isinstance(term, (terms.TMu, terms.TNu)):
            return self._fixpoint(term, env)
        raise TypeError(f"not a term: {term!r}")

    def _subst_set(self, conditions: Iterable[Inequality], slot: int, repl: Row) -> list[Inequality]:
        out: list[Inequality] = []
        for ineq in conditions:
            r = ineq.substitute(slot, repl)
            if r is True:
                continue
            if r is False:
                raise InternalInvariantError("substitution produced a false ground inequality")
            out.append(r)
        return out

    def _fixpoint(
        self, term: terms.TMu | terms.TNu, env: dict[str, int]
    ) -> tuple[tuple[Inequality, ...], Row]:
        is_mu = isinstance(term, terms.TMu)
        slot = len(self._values)
        self._values.append((0, 1))
        self._names.append(term.var)
        inner_env = {**env, term.var: slot}
        slot_box = _slot_box(slot)
        carried: set[Inequality] = set()  # the loop's constraint set D
        approx = ZERO if is_mu else ONE
        try:
            for _ in range(self.max_loop_iterations):
                self.loop_iterations += 1
                self._set_value(slot, approx)
                num, den = self._values[slot]
                if not 0 <= num <= den:
                    raise InternalInvariantError("a scope variable left [0, 1]")
                conds, expr = self._eval(term.body, inner_env)
                full = sorted({*conds, *slot_box})  # with the box of x, as (P2) needs
                # expr = (c*x + rest)/d, so q = c/d and rest/(1-q) = rest/(d-c)
                c, rest = _split(expr.coeffs, slot)
                d = expr.den
                blocker: Inequality | None = None
                if c != d:
                    f = Row.make(rest, expr.const, d - c)
                    self._set_value(slot, f)
                    violated = _first_violated_sorted(full, self._nums, self._den)
                    if violated is None:
                        merged = (
                            list(carried)
                            + self._subst_set(full, slot, approx)
                            + self._subst_set(full, slot, f)
                        )
                        return self._finish(slot, merged, f)
                    sub = violated.substitute(slot, f)
                    if sub is True:
                        raise InternalInvariantError("violated inequality substituted to true")
                    if sub is not False:  # ground-false negates to a vacuous truth
                        blocker = sub.negation()
                else:
                    rest_num = Row(rest, expr.const, d).numerator_at(self._nums, self._den)
                    negated = tuple((s, -v) for s, v in rest)
                    if rest_num == 0:
                        eq_low = Inequality.canonical(rest, expr.const, strict=False)
                        eq_high = Inequality.canonical(negated, -expr.const, strict=False)
                        merged = list(carried) + self._subst_set(full, slot, approx)
                        merged += [i for i in (eq_low, eq_high) if isinstance(i, Inequality)]
                        return self._finish(slot, merged, approx)
                    if rest_num > 0:
                        sign = Inequality.canonical(rest, expr.const, strict=True)
                    else:
                        sign = Inequality.canonical(negated, -expr.const, strict=True)
                    if isinstance(sign, Inequality):
                        blocker = sign
                # find the next approximation
                uppers, lowers = normalize_on(full, slot)
                candidates = uppers if is_mu else lowers
                if not candidates:
                    raise InternalInvariantError(
                        "no bound on the fixed-point variable; conditions must box it"
                    )
                # compare the values n/(den*D) by cross-multiplying
                chosen = candidates[0]
                chosen_num = chosen.numerator_at(self._nums, self._den)
                for cand in candidates[1:]:
                    n = cand.numerator_at(self._nums, self._den)
                    lhs, rhs = n * chosen.den, chosen_num * cand.den
                    if (lhs < rhs) if is_mu else (lhs > rhs):
                        chosen, chosen_num = cand, n
                relations = []
                for other in candidates:
                    rel = _at_least(other, chosen) if is_mu else _at_least(chosen, other)
                    if rel is False:
                        raise InternalInvariantError("chosen bound is not extremal")
                    if rel is not True:
                        relations.append(rel)
                carried.update(self._subst_set(full, slot, approx))
                if blocker is not None:
                    carried.add(blocker)
                carried.update(relations)
                approx = expr.substitute(slot, chosen)
            raise InternalInvariantError(
                f"fixed-point loop exceeded {self.max_loop_iterations} iterations"
            )
        finally:
            self._values.pop()
            self._names.pop()
            self._rescale()

    def _finish(
        self, slot: int, merged: list[Inequality], expr: Row
    ) -> tuple[tuple[Inequality, ...], Row]:
        if any(s == slot for ineq in merged for s, _ in ineq.coeffs) or _split(expr.coeffs, slot)[0]:
            raise InternalInvariantError("loop result still mentions its bound variable")
        conds = make_conditions(merged)
        bad = _first_violated_sorted(conds, self._nums, self._den)
        if bad is not None:
            raise InternalInvariantError(
                f"constructed condition violated at the evaluation point: "
                f"{render_inequality(bad, self._names)}"
            )
        return conds, expr


def eval_term(
    term: terms.Term,
    point: Mapping[str, Fraction],
    max_loop_iterations: int = DEFAULT_LOOP_CAP,
) -> EvalResult:
    """Evaluate a term at a point covering its free variables."""
    return TermEvaluator(max_loop_iterations).evaluate(term, point)


def render_lin_expr(e: LinExpr, names: Sequence[str]) -> str:
    """Stable text form, e.g. `1/2*x + -1*y + 3/4`."""
    pieces = [f"{format_rational(c)}*{names[s]}" for s, c in e.coeffs]
    if not pieces or e.const != 0:
        pieces.append(format_rational(e.const))
    return " + ".join(pieces)


def render_inequality(ineq: Inequality, names: Sequence[str]) -> str:
    pieces = [f"{c}*{names[s]}" for s, c in ineq.coeffs]
    if not pieces or ineq.const != 0:
        pieces.append(str(ineq.const))
    rel = ">" if ineq.strict else ">="
    return f"{' + '.join(pieces)} {rel} 0"

"""Exact evaluation of fixed-point terms at rational points.

Evaluating a term t(x1..xn) at a point r in [0,1]^n produces a conditioned
linear expression, a pair (C, e) of a finite inequality set and a linear
expression over x1..xn, such that

  (P1) every inequality in C holds at r, and
  (P2) every real point s satisfying C lies in [0,1]^n and has e(s) = t(s).

The value t(r) is then e(r). Inequalities are stored as `expr > 0` or
`expr >= 0` with integer coefficients scaled to gcd 1, so condition sets
deduplicate and order canonically.

A constant is its own expression under the box conditions 0 <= x <= 1 of
the variables in scope, as a variable is; no loop runs for it. Other
non-binder constructors combine the recursive results and record which
branch the point selected (which side of a max/min won, whether a truncated
sum saturated). A binder `mu x.t'` runs the approximation loop: starting
from the constant 0 (1 for `nu`), repeatedly evaluate t' at the current
approximation d; writing the resulting expression as q*x + rest, the
candidate fixed point is f = rest/(1-q) when q != 1. If the body's
conditions accept f, the loop exits with f; otherwise the first violated
inequality (negated, with f substituted) joins the carried constraint set D
and the approximation jumps to the tightest upper bound C places on x (the
greatest lower bound, for `nu`). When q = 1, the loop exits with d itself
if rest vanishes at the point, else the sign of rest drives the same
next-approximation step. Termination is guaranteed; the iteration cap only
guards against implementation bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from . import terms
from .rationals import format_rational

__all__ = [
    "EvalError",
    "InternalInvariantError",
    "LinExpr",
    "Inequality",
    "EvalResult",
    "cond_holds",
    "normalize_on",
    "make_conditions",
    "TermEvaluator",
    "eval_term",
    "eval_closed",
    "render_inequality",
    "render_lin_expr",
]

DEFAULT_LOOP_CAP = 1_000_000


class EvalError(ValueError):
    """Bad evaluation input (uncovered variable, value outside [0, 1])."""


class InternalInvariantError(RuntimeError):
    """A guaranteed invariant failed; indicates a bug, not a semantic outcome."""


@dataclass(frozen=True)
class LinExpr:
    """Rational linear expression over variable slots."""

    coeffs: tuple[tuple[int, Fraction], ...]  # slot-ascending, zero coefficients omitted
    const: Fraction

    @staticmethod
    def constant(q: Fraction) -> "LinExpr":
        return LinExpr((), Fraction(q))

    @staticmethod
    def variable(slot: int) -> "LinExpr":
        return LinExpr(((slot, Fraction(1)),), Fraction(0))

    @staticmethod
    def _build(coeffs: dict[int, Fraction], const: Fraction) -> "LinExpr":
        items = tuple(sorted((s, c) for s, c in coeffs.items() if c != 0))
        return LinExpr(items, const)

    def coefficient(self, slot: int) -> Fraction:
        for s, c in self.coeffs:
            if s == slot:
                return c
        return Fraction(0)

    def without(self, slot: int) -> "LinExpr":
        return LinExpr(tuple((s, c) for s, c in self.coeffs if s != slot), self.const)

    def scale(self, q: Fraction) -> "LinExpr":
        if q == 0:
            return LinExpr.constant(Fraction(0))
        return LinExpr(tuple((s, c * q) for s, c in self.coeffs), self.const * q)

    def add(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.coeffs)
        for s, c in other.coeffs:
            acc[s] = acc.get(s, Fraction(0)) + c
        return LinExpr._build(acc, self.const + other.const)

    def negate(self) -> "LinExpr":
        return self.scale(Fraction(-1))

    def subtract(self, other: "LinExpr") -> "LinExpr":
        return self.add(other.negate())

    def substitute(self, slot: int, repl: "LinExpr") -> "LinExpr":
        c = self.coefficient(slot)
        if c == 0:
            return self
        return self.without(slot).add(repl.scale(c))

    def evaluate(self, values: Sequence[Fraction] | Mapping[int, Fraction]) -> Fraction:
        # accumulate over a common denominator, normalizing once at the end
        num, den = self.const.numerator, self.const.denominator
        for s, c in self.coeffs:
            v = values[s]
            cn = c.numerator * v.numerator
            cd = c.denominator * v.denominator
            num = num * cd + cn * den
            den *= cd
        return Fraction(num, den)

    @property
    def slots(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.coeffs)


@dataclass(frozen=True)
class Inequality:
    """Canonical `expr > 0` (strict) or `expr >= 0` over integer coefficients."""

    coeffs: tuple[tuple[int, int], ...]
    const: int
    strict: bool

    @staticmethod
    def from_linexpr(e: LinExpr, strict: bool) -> "Inequality | bool":
        """Canonicalize `e > 0` / `e >= 0`; ground inequalities become truth values."""
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

    def as_linexpr(self) -> LinExpr:
        return LinExpr(tuple((s, Fraction(c)) for s, c in self.coeffs), Fraction(self.const))

    def holds(self, values: Sequence[Fraction] | Mapping[int, Fraction]) -> bool:
        # sign test over a common denominator, no normalization needed
        num, den = self.const, 1
        for s, c in self.coeffs:
            v = values[s]
            num = num * v.denominator + c * v.numerator * den
            den *= v.denominator
        return num > 0 if self.strict else num >= 0

    def substitute(self, slot: int, repl: LinExpr) -> "Inequality | bool":
        if all(s != slot for s, _ in self.coeffs):
            return self
        return Inequality.from_linexpr(self.as_linexpr().substitute(slot, repl), self.strict)

    def negation(self) -> "Inequality":
        coeffs = tuple((s, -c) for s, c in self.coeffs)
        return Inequality(coeffs, -self.const, not self.strict)

    def sort_key(self) -> tuple:
        return (self.coeffs, self.const, self.strict)


def make_conditions(items: Iterable[Inequality]) -> tuple[Inequality, ...]:
    """Deduplicated, canonically ordered condition set."""
    return tuple(sorted(set(items), key=Inequality.sort_key))


def cond_holds(conditions: Iterable[Inequality], values) -> bool:
    return all(ineq.holds(values) for ineq in conditions)


def _first_violated_sorted(conditions: Iterable[Inequality], values) -> Inequality | None:
    """Least failing inequality of a canonically ordered set, None if all hold."""
    for ineq in conditions:
        if not ineq.holds(values):
            return ineq
    return None


def normalize_on(
    conditions: Iterable[Inequality], slot: int
) -> tuple[list[LinExpr], list[LinExpr]]:
    """Upper and lower bounds the conditions place on one variable.

    Each inequality mentioning the slot is divided by its coefficient,
    flipping on sign. Uppers list non-strict bounds before strict ones,
    lowers strict before non-strict, each group in the canonical order of
    its source inequalities; the loop breaks ties by this order.
    """
    upper_nonstrict: list[LinExpr] = []
    upper_strict: list[LinExpr] = []
    lower_strict: list[LinExpr] = []
    lower_nonstrict: list[LinExpr] = []
    for ineq in sorted(conditions, key=Inequality.sort_key):
        c = Fraction(0)
        for s, v in ineq.coeffs:
            if s == slot:
                c = Fraction(v)
        if c == 0:
            continue
        rest = ineq.as_linexpr().without(slot)
        bound = rest.scale(Fraction(-1) / c)  # solve c*x + rest ? 0 for x
        if c > 0:
            (lower_strict if ineq.strict else lower_nonstrict).append(bound)
        else:
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
        self._cache: dict[tuple, list[tuple[tuple[Inequality, ...], LinExpr]]] = {}
        self._range_cache: dict[int, tuple[Inequality, ...]] = {}

    def evaluate(self, term: terms.Term, point: Mapping[str, Fraction]) -> EvalResult:
        missing = set(term.free) - set(point)
        if missing:
            raise EvalError(f"point does not cover variables {sorted(missing)}")
        names = tuple(sorted(point))
        start_iterations = self.loop_iterations
        self._values: list[Fraction] = []
        self._names: list[str] = []
        env: dict[str, int] = {}
        for name in names:
            v = Fraction(point[name])
            if not (0 <= v <= 1):
                raise EvalError(f"{name} = {format_rational(v)} outside [0, 1]")
            env[name] = len(self._values)
            self._values.append(v)
            self._names.append(name)
        conditions, expr = self._eval(term, env)
        n_free = len(names)
        if any(s >= n_free for ineq in conditions for s, _ in ineq.coeffs) or any(
            s >= n_free for s in expr.slots
        ):
            raise InternalInvariantError("bound slot escaped from a fixed-point loop")
        return EvalResult(
            conditions=conditions,
            expr=expr,
            value=expr.evaluate(self._values),
            variables=names,
            iterations=self.loop_iterations - start_iterations,
        )

    def value(self, term: terms.Term, point: Mapping[str, Fraction]) -> Fraction:
        return self.evaluate(term, point).value

    # internal recursion; (P1) is asserted for every newly built inequality:
    # cheaply at constructor nodes (the children were verified when built, at
    # the same point) and in full wherever a loop result enters the tree

    def _verify(self, conds: tuple[Inequality, ...], expr: LinExpr) -> tuple[tuple[Inequality, ...], LinExpr]:
        bad = _first_violated_sorted(conds, self._values)
        if bad is not None:
            raise InternalInvariantError(
                f"constructed condition violated at the evaluation point: "
                f"{render_inequality(bad, self._names)}"
            )
        return conds, expr

    def _witnessed(
        self, c1, c2, witness: "Inequality | bool", expr: LinExpr
    ) -> tuple[tuple[Inequality, ...], LinExpr]:
        if witness is False:
            raise InternalInvariantError("branch witness is false at the evaluation point")
        if witness is True:
            return make_conditions([*c1, *c2]), expr
        if not witness.holds(self._values):
            raise InternalInvariantError(
                f"branch witness violated: {render_inequality(witness, self._names)}"
            )
        return make_conditions([*c1, *c2, witness]), expr

    def _eval(self, term: terms.Term, env: dict[str, int]) -> tuple[tuple[Inequality, ...], LinExpr]:
        if isinstance(term, terms.TVar):
            slot = env.get(term.name)
            if slot is None:
                raise EvalError(f"unbound term variable {term.name!r}")
            if any(not (0 <= v <= 1) for v in self._values):
                raise InternalInvariantError("a scope variable left [0, 1]")
            return self._range_conditions(len(self._values)), LinExpr.variable(slot)
        if isinstance(term, terms.TConst):
            return self._range_conditions(len(self._values)), LinExpr.constant(term.value)
        # every result this evaluation ever produced for a subterm satisfies
        # (P2) universally, so the results collected per (node, scope, slot
        # assignment) form part of a representing system: whenever a previous
        # result's conditions accept the current point it is the answer here
        # too, and the acceptance test doubles as the (P1) assertion. Shared
        # subterms and the sweeps of enclosing loops revisit nodes constantly,
        # which makes this cache the difference between feasible and hopeless.
        key = (term, len(self._values), tuple((n, env[n]) for n in term.free))
        basis = self._cache.setdefault(key, [])
        for i, (conds, expr) in enumerate(basis):
            if cond_holds(conds, self._values):
                if i:  # move-to-front; deterministic for identical runs
                    basis.insert(0, basis.pop(i))
                return conds, expr
        result = self._eval_raw(term, env)
        basis.append(result)
        return result

    def _eval_raw(self, term: terms.Term, env: dict[str, int]) -> tuple[tuple[Inequality, ...], LinExpr]:
        if isinstance(term, terms.TScalar):
            conds, expr = self._eval(term.body, env)
            return conds, expr.scale(term.factor)
        if isinstance(term, (terms.TJoin, terms.TMeet)):
            c1, e1 = self._eval(term.left, env)
            c2, e2 = self._eval(term.right, env)
            v1 = e1.evaluate(self._values)
            v2 = e2.evaluate(self._values)
            prefer_left = v1 >= v2 if isinstance(term, terms.TJoin) else v1 <= v2
            winner, loser = (e1, e2) if prefer_left else (e2, e1)
            if isinstance(term, terms.TJoin):
                witness = Inequality.from_linexpr(winner.subtract(loser), strict=False)
            else:
                witness = Inequality.from_linexpr(loser.subtract(winner), strict=False)
            return self._witnessed(c1, c2, witness, winner)
        if isinstance(term, (terms.TOPlus, terms.TOTimes)):
            c1, e1 = self._eval(term.left, env)
            c2, e2 = self._eval(term.right, env)
            total = e1.add(e2)
            s = total.evaluate(self._values)
            one = LinExpr.constant(Fraction(1))
            if isinstance(term, terms.TOPlus):
                if s <= 1:
                    witness = Inequality.from_linexpr(one.subtract(total), strict=False)
                    result = total
                else:
                    witness = Inequality.from_linexpr(total.subtract(one), strict=False)
                    result = one
            else:
                if s - 1 >= 0:
                    witness = Inequality.from_linexpr(total.subtract(one), strict=False)
                    result = total.subtract(one)
                else:
                    witness = Inequality.from_linexpr(one.subtract(total), strict=False)
                    result = LinExpr.constant(Fraction(0))
            return self._witnessed(c1, c2, witness, result)
        if isinstance(term, (terms.TMu, terms.TNu)):
            return self._fixpoint(term, env)
        raise TypeError(f"not a term: {term!r}")

    def _range_conditions(self, scope: int) -> tuple[Inequality, ...]:
        """0 <= x_j <= 1 for every variable in scope; (P2) needs the full box."""
        cached = self._range_cache.get(scope)
        if cached is None:
            conds: list[Inequality] = []
            for slot in range(scope):
                x = LinExpr.variable(slot)
                low = Inequality.from_linexpr(x, strict=False)
                high = Inequality.from_linexpr(
                    LinExpr.constant(Fraction(1)).subtract(x), strict=False
                )
                assert isinstance(low, Inequality) and isinstance(high, Inequality)
                conds.append(low)
                conds.append(high)
            cached = make_conditions(conds)
            self._range_cache[scope] = cached
        return cached

    def _subst_set(
        self, conditions: Iterable[Inequality], slot: int, repl: LinExpr
    ) -> list[Inequality]:
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
    ) -> tuple[tuple[Inequality, ...], LinExpr]:
        is_mu = isinstance(term, terms.TMu)
        slot = len(self._values)
        self._values.append(Fraction(0))
        self._names.append(term.var)
        inner_env = {**env, term.var: slot}
        carried: set[Inequality] = set()  # the loop's constraint set D
        approx = LinExpr.constant(Fraction(0) if is_mu else Fraction(1))
        try:
            for _ in range(self.max_loop_iterations):
                self.loop_iterations += 1
                self._values[slot] = approx.evaluate(self._values)
                conds, expr = self._eval(term.body, inner_env)
                q = expr.coefficient(slot)
                rest = expr.without(slot)
                blocker: Inequality | None = None
                if q != 1:
                    f = rest.scale(1 / (1 - q))
                    self._values[slot] = f.evaluate(self._values)
                    violated = _first_violated_sorted(conds, self._values)
                    if violated is None:
                        merged = (
                            list(carried)
                            + self._subst_set(conds, slot, approx)
                            + self._subst_set(conds, slot, f)
                        )
                        return self._finish(slot, merged, f)
                    sub = violated.substitute(slot, f)
                    if sub is True:
                        raise InternalInvariantError("violated inequality substituted to true")
                    if sub is not False:  # ground-false negates to a vacuous truth
                        blocker = sub.negation()
                else:
                    rest_value = rest.evaluate(self._values)
                    if rest_value == 0:
                        eq_low = Inequality.from_linexpr(rest, strict=False)
                        eq_high = Inequality.from_linexpr(rest.negate(), strict=False)
                        merged = list(carried) + self._subst_set(conds, slot, approx)
                        merged += [i for i in (eq_low, eq_high) if isinstance(i, Inequality)]
                        return self._finish(slot, merged, approx)
                    row = rest if rest_value > 0 else rest.negate()
                    sign = Inequality.from_linexpr(row, strict=True)
                    if isinstance(sign, Inequality):
                        blocker = sign
                # find the next approximation
                uppers, lowers = normalize_on(conds, slot)
                candidates = uppers if is_mu else lowers
                if not candidates:
                    raise InternalInvariantError(
                        "no bound on the fixed-point variable; conditions must box it"
                    )
                best = 0
                best_value = candidates[0].evaluate(self._values)
                for i, cand in enumerate(candidates[1:], start=1):
                    v = cand.evaluate(self._values)
                    if (v < best_value) if is_mu else (v > best_value):
                        best, best_value = i, v
                chosen = candidates[best]
                relations = []
                for other in candidates:
                    rel = Inequality.from_linexpr(
                        other.subtract(chosen) if is_mu else chosen.subtract(other),
                        strict=False,
                    )
                    if rel is False:
                        raise InternalInvariantError("chosen bound is not extremal")
                    if rel is not True:
                        relations.append(rel)
                carried.update(self._subst_set(conds, slot, approx))
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

    def _finish(
        self, slot: int, merged: list[Inequality], expr: LinExpr
    ) -> tuple[tuple[Inequality, ...], LinExpr]:
        if any(s == slot for ineq in merged for s, _ in ineq.coeffs) or expr.coefficient(slot):
            raise InternalInvariantError("loop result still mentions its bound variable")
        return self._verify(make_conditions(merged), expr)


def eval_term(
    term: terms.Term,
    point: Mapping[str, Fraction],
    max_loop_iterations: int = DEFAULT_LOOP_CAP,
) -> EvalResult:
    """Evaluate a term at a point covering its free variables."""
    return TermEvaluator(max_loop_iterations).evaluate(term, point)


def eval_closed(term: terms.Term, max_loop_iterations: int = DEFAULT_LOOP_CAP) -> Fraction:
    """Exact value of a closed term."""
    if term.free:
        raise EvalError(f"term is not closed; free: {list(term.free)}")
    return eval_term(term, {}, max_loop_iterations).value


def render_lin_expr(e: LinExpr, names: Sequence[str]) -> str:
    """Stable text form, e.g. `1/2*x + -1*y + 3/4`."""
    pieces = [f"{format_rational(c)}*{names[s]}" for s, c in e.coeffs]
    if not pieces or e.const != 0:
        pieces.append(format_rational(e.const))
    return " + ".join(pieces)


def render_inequality(ineq: Inequality, names: Sequence[str]) -> str:
    rel = ">" if ineq.strict else ">="
    return f"{render_lin_expr(ineq.as_linexpr(), names)} {rel} 0"

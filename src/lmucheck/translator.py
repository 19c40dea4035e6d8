"""Translation of a closed formula over a finite model into one closed term per state.

Binders are first alpha-renamed apart; binder i is the i-th `mu`/`nu`
node in pre-order, and a variable finds its number by name. The
translation walks the formula per state, tracking in a context which
(binder, state) pairs are currently open: a variable hit inside the context
becomes the term variable `x_i@s`, a miss re-expands its binder at the
current state, and the modalities expand into joins/meets over the
available distributions of truncated-sum convex combinations. Re-expansion
can bind the same `x_i@s` at several places, including shadowed nesting;
the evaluator scopes term variables lexically, so this is sound.

The context only ever holds entries of binders that enclose the node being
walked. Those binders form a chain, and in pre-order an enclosing binder
numbered below i encloses binder i while one numbered above i is nested in
it. A node reads no entry numbered above k, the largest binder number among
its free variables (0 for a closed node): it looks up only its free
variables, re-entry at one of them keeps only entries up to k, and the
binders inside it, numbered above every enclosing one, add their own. So
(node, entries numbered up to k, state) is an exact memo key, and the walk
passes only those entries down. A variable of binder i is such a node with
k = i: its context holds only the enclosing binders and i's own open
states, so re-entry adds (i, s) to it, as entering binder i does.

The walk folds constants as it goes. A subterm that constants decide is
kept as its value, a `Fraction`, in the memo and in every rule below; no
node is built for it. A constant becomes the term node `constant(q)` only
where it meets an undecided operand (`q \\/ t`, say) and, without an
evaluator, as a per-state result, so the terms returned are the same as if
every constant were built as `constant(q)` and folded node by node. Every
term denotes a value in [0, 1], which makes each rule exact:

- two constant operands of `\\/ /\\ (+) (.)` fold to the constant their
  connective computes (max, min, min(1, a+b), max(0, a+b-1));
- `1 \\/ t` and `1 (+) t` are 1, `0 /\\ t` and `0 (.) t` are 0, either side:
  max(1, t) = min(1, 1+t) = 1 and min(0, t) = max(0, t-1) = 0 on [0, 1];
- `0 \\/ t`, `0 (+) t`, `1 /\\ t` and `1 (.) t` are t, either side:
  max(0, t), min(1, 0+t), min(1, t) and max(0, 1+t-1) all equal t on [0, 1];
- `0*t` is 0, `1*t` is t and `q*c` is the constant qc, by arithmetic;
- a binder whose body does not mention its variable is that body, the
  only fixed point of a map that ignores its argument (a constant body
  included); `mu x. x` is 0 and `nu x. x` is 1, the least and greatest
  fixed points of the identity;
- `mu x. (x (+) c)` is 1 and `nu x. (x (.) c)` is 0, for a constant node
  `c = q*1` on either side: the rules above never leave 0 or 1 next to an
  undecided operand, so 0 < q < 1, and then 1 is the only fixed point of
  min(1, x+q) and 0 the only one of max(0, x+q-1). These are the threshold
  macros of `lmu.expand_threshold` once their argument is decided, as in
  every next-step PCTL operator on boolean labels;
- the literals `1` and `0` are the constants 1 and 0;
- propositions, co-propositions, deadlocked modalities (the empty join is
  0, the empty meet 1) and the per-distribution sums use the same rules. A
  sum adds its leading decided pieces on integers, as one numerator over a
  product of denominators, and makes one `Fraction` when an undecided piece
  ends the run; the value is the same as adding them one by one.

Strata: given an evaluator, as in a check, the walk solves each closed
binder (`mu`/`nu` with no free variable), the root included, at each state
it reaches, by one rule. A binder in the boolean fragment is decided by
`BooleanFragment` as a set and folds as 1 or 0 at each state: its iterates
on sets are 0/1 vectors that stay below (above, for `nu`) every fixed point
over [0, 1]^S and settle within |S| steps, so they end at its value. Any
other is expanded and its term evaluated. The value is kept in the memo
under (node, {}, state), and the enclosing formula folds it like a label,
as a state-labelling checker does with a nested `P` operator; a closed
subformula means the same in every context, so no value changes. A root in
the fragment is decided before the binders are renamed, with no walk.
Without an evaluator, as in `translate`, the walk builds the whole
unstratified term, the reference object.

Solved binders: given an evaluator, a variable of a closed binder, the
root included, met at a state t outside the context is read as that
binder's value at t, once the memo keeps one, instead of re-expanding the
binder. For `mu` (dual for `nu`), let V be the least fixed point of
x = F(x) and pin x_S := V_S. V_R is a fixed point of the reduced system, so
its least one W has W <= V_R; (V_S, W) is a pre-fixed point of F, so
V <= (V_S, W), that is V_R <= W. So no value changes. Every open memo
entry from expanding binder i at t holds (i, t) in its key, and a walk that
reads t's value never opens (i, t), so read and expanded results never
share a key. What is read depends on which states were solved first, so
loop counts depend on the order of the requested states; values do not.

Short-circuit: when the left operand of `\\/`/`(+)` folds to 1, or that of
`/\\`/`(.)` to 0, or a formula scalar is 0, the other operand is not walked,
since the rules above decide the result without it; a modality's join,
meet or sum likewise stops at the first distribution or successor that
decides it. In the PCTL encodings `mu T. (P2 \\/ P1 /\\ ...)` this stops the
re-expansion at states where the formula is already decided.
"""

from __future__ import annotations

from fractions import Fraction

from . import lmu
from .evaluator import InternalInvariantError, TermEvaluator
from .model import Interpretation, Pnts

__all__ = ["BooleanFragment", "TranslationError", "term_var", "translate_all"]


_ONE, _ZERO = Fraction(1), Fraction(0)
_CLOSED: frozenset[tuple[int, str]] = frozenset()  # the context a closed node reads

# a translated subterm: its value once constants decide it, else a term
Folded = Fraction | lmu.Lmu


def _is_constant(t: lmu.Lmu) -> bool:
    """Whether t is a constant node `q*1`."""
    return type(t) is lmu.Scalar and t.body is lmu.ONE


class TranslationError(ValueError):
    """Bad translation input or blown expansion budget."""


def term_var(i: int, state: str) -> str:
    return f"x_{i}@{state}"


class _Outside(Exception):
    """The node being decided lies outside the boolean fragment."""


class BooleanFragment:
    """Decides closed formulas of the boolean fragment over one model and
    interpretation as state sets: `states(phi)` is the set of states where
    phi is 1 (it is 0 elsewhere), or None for a formula outside the fragment.

    The fragment holds propositions and complements whose labels are 0 or 1
    at every state, `0`, `1`, variables, `\\/`, `/\\`, `mu`/`nu` over a
    fragment body, and the threshold macros `mu X. (X (+) psi)` = [psi > 0]
    and `nu X. (X (.) psi)` = [psi = 1] with X not free in psi, where psi is
    `<>phi`, `[]phi` or a fragment formula, or a `\\/`/`/\\` of these, and phi
    is in the fragment. With phi the set A, `<>phi > 0` holds where some
    distribution's support meets A and `<>phi = 1` where some support lies
    inside A; `[]` reads "every" for "some", so a deadlock gives 0 under
    `<>` and 1 under `[]`; `max` and `min` split into `or` and `and` of the
    two sides. A binder iterates its body on sets from the empty set (the
    full one for `nu`). Every rule is monotone and maps 0/1 vectors to 0/1
    vectors, so the iterates are 0/1, rise (fall for `nu`), settle within
    |S| steps, and stay below (above) every fixed point over [0, 1]^S: they
    end at the least (greatest) one, the formula's value. Sets are kept as
    bit masks over the states' positions; a closed node's mask is the same
    in every environment, so it is computed once.
    """

    def __init__(self, m: Pnts, interp: Interpretation) -> None:
        self.m, self.interp = m, interp
        self.full = (1 << len(m.states)) - 1
        self.labels: dict[str, int] = {}  # boolean proposition -> its mask
        # (state's bit, support mask) per distribution, built on first use
        self.supports: list[tuple[int, int]] | None = None
        self.closed: dict[lmu.Lmu, int] = {}
        self.decided: dict[lmu.Lmu, frozenset[str] | None] = {}

    def states(self, phi: lmu.Lmu) -> frozenset[str] | None:
        """The states where the closed formula phi is 1, or None outside the fragment."""
        if phi in self.decided:
            return self.decided[phi]
        try:
            mask = self._value(phi, {})
        except _Outside:
            result = None
        else:
            result = frozenset(s for i, s in enumerate(self.m.states) if mask >> i & 1)
        self.decided[phi] = result
        return result

    def _label(self, name: str) -> int:
        mask = self.labels.get(name)
        if mask is None:
            mask = 0
            for i, s in enumerate(self.m.states):
                v = self.interp.value(name, s)  # a rational in [0, 1]
                if v.denominator != 1:
                    raise _Outside
                if v.numerator:
                    mask |= 1 << i
            self.labels[name] = mask
        return mask

    def _step(self, node: lmu.Diamond | lmu.Box, env: dict[str, int], positive: bool) -> int:
        """`[M phi > 0]` (`positive`) or `[M phi = 1]`, M the node's modality."""
        supports = self.supports
        if supports is None:
            m = self.m
            supports = self.supports = [
                (1 << i, sum(1 << m.index[t] for t, _ in d.entries))
                for i, s in enumerate(m.states)
                for d in m.distributions(s)
            ]
        inner = self._value(node.body, env)
        if type(node) is lmu.Diamond:  # some distribution hits
            out = 0
            for bit, d in supports:
                if (d & inner if positive else d & inner == d):
                    out |= bit
        else:  # every distribution hits: drop a state one misses
            out = self.full
            for bit, d in supports:
                if not (d & inner if positive else d & inner == d):
                    out &= ~bit
        return out

    def _threshold(self, psi: lmu.Lmu, env: dict[str, int], positive: bool) -> int:
        """`[psi > 0]` (`positive`) or `[psi = 1]`."""
        kind = type(psi)
        if kind is lmu.Diamond or kind is lmu.Box:
            return self._step(psi, env, positive)
        if kind is lmu.Join:
            return self._threshold(psi.left, env, positive) | self._threshold(psi.right, env, positive)
        if kind is lmu.Meet:
            return self._threshold(psi.left, env, positive) & self._threshold(psi.right, env, positive)
        return self._value(psi, env)

    def _value(self, node: lmu.Lmu, env: dict[str, int]) -> int:
        if not node.free:
            hit = self.closed.get(node)
            if hit is not None:
                return hit
        kind = type(node)
        if kind is lmu.Var:
            if node.name not in env:
                raise _Outside  # free in the formula decided
            return env[node.name]
        if kind is lmu.Prop:
            result = self._label(node.name)
        elif kind is lmu.CoProp:
            result = self.full ^ self._label(node.name)
        elif kind is lmu.Const:
            result = self.full if node.value else 0
        elif kind is lmu.Join:
            result = self._value(node.left, env) | self._value(node.right, env)
        elif kind is lmu.Meet:
            result = self._value(node.left, env) & self._value(node.right, env)
        elif kind is lmu.Mu or kind is lmu.Nu:
            is_mu = kind is lmu.Mu
            body, var = node.body, node.var
            psi = None
            if type(body) is (lmu.OPlus if is_mu else lmu.OTimes):
                left, right = body.left, body.right
                if type(left) is lmu.Var and left.name == var:
                    psi = right
                elif type(right) is lmu.Var and right.name == var:
                    psi = left
            if psi is not None and var not in psi.free:
                result = self._threshold(psi, env, is_mu)
            else:
                result = 0 if is_mu else self.full
                while True:
                    nxt = self._value(body, {**env, var: result})
                    if nxt == result:
                        break
                    result = nxt
        else:
            raise _Outside
        if not node.free:
            self.closed[node] = result
        return result


# Constant folding, by the rules in the module docstring: a decided subterm
# is its value, a `Fraction`; a term node is built only where a constant
# meets an undecided operand.
# connective -> (absorbing value, neutral value, value of two constants);
# values are compared with ints, which `Fraction` compares fastest
_RULES = {
    lmu.Join: (1, 0, max),
    lmu.Meet: (0, 1, min),
    lmu.OPlus: (1, 0, lambda a, b: min(_ONE, a + b)),
    lmu.OTimes: (0, 1, lambda a, b: max(_ZERO, a + b - 1)),
}


def combine(cls: type, left: Folded, right: Folded) -> Folded:
    absorbing, neutral, fold = _RULES[cls]
    if not isinstance(left, lmu.Lmu):
        if not isinstance(right, lmu.Lmu):
            return fold(left, right)
        if left == absorbing:
            return left
        if left == neutral:
            return right
        return cls(lmu.constant(left), right)
    if not isinstance(right, lmu.Lmu):
        if right == absorbing:
            return right
        if right == neutral:
            return left
        return cls(left, lmu.constant(right))
    return cls(left, right)


def scale(q: Fraction, body: Folded) -> Folded:
    if q == 1:
        return body
    if not isinstance(body, lmu.Lmu):
        return q * body
    return lmu.Scalar(q, body)


# binder -> (connective of its threshold body, the body's one fixed point)
_THRESHOLDS = {lmu.Mu: (lmu.OPlus, _ONE), lmu.Nu: (lmu.OTimes, _ZERO)}


def bind(cls: type, var: str, body: Folded) -> Folded:
    if not isinstance(body, lmu.Lmu) or var not in body.free:
        return body
    # the variable is free in the body, so a variable body, or a
    # variable next to a closed constant, is the variable itself
    if isinstance(body, lmu.Var):
        return _ZERO if cls is lmu.Mu else _ONE
    connective, value = _THRESHOLDS[cls]
    if type(body) is connective:
        left, right = body.left, body.right
        if (_is_constant(left) and type(right) is lmu.Var) or (
            type(left) is lmu.Var and _is_constant(right)
        ):
            return value
    return cls(var, body)


def translate_all(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
    *,
    max_steps: int = 1_000_000,
    evaluator: TermEvaluator | None = None,
) -> dict[str, Folded]:
    """Each requested state's closed term, or with an `evaluator` its
    value, in the order of `states` (default: all, in canonical order).

    Without an evaluator, as in `translate`, the terms are the unstratified
    reference terms, sharing identical subterm objects across states (one
    memo covers all of them); a decided state's term is the constant `q*1`.
    With one, as in a check, the walk solves every closed fixed point it
    reaches (see "Strata" in the module docstring), so each state folds to
    its value, a `Fraction`. A term left at a state raises
    `InternalInvariantError`. It cannot happen: a closed `mu`/`nu` becomes a
    `Fraction`, every other closed node has only closed children, and the
    rules map `Fraction` operands to a `Fraction`.
    """
    targets = m.states if states is None else states
    for state in targets:
        if state not in m.index:
            raise TranslationError(f"unknown state {state!r}")
    if phi.free:
        raise TranslationError(f"formula must be closed; free: {list(phi.free)}")
    fragment = BooleanFragment(m, interp) if evaluator is not None else None
    # a fragment root is decided before the renaming, which it does not need
    decided = fragment.states(phi) if fragment is not None else None
    if decided is not None:
        return {s: _ONE if s in decided else _ZERO for s in targets}
    phi = lmu.normalize_binders(phi)
    if fragment is not None:  # the renaming keeps the root outside the fragment
        fragment.decided[phi] = None
    binders = [n for n in lmu.subformulas(phi) if isinstance(n, (lmu.Mu, lmu.Nu))]
    number = {binder.var: i for i, binder in enumerate(binders, 1)}

    memo: dict[tuple[lmu.Lmu, frozenset[tuple[int, str]], str], Folded] = {}
    steps = [0]

    def expand(i: int, gamma: frozenset[tuple[int, str]], s: str) -> Folded:
        """Binder i at state s, (i, s) opened in the context."""
        binder = binders[i - 1]
        body = walk(binder.body, gamma | {(i, s)}, s)
        return bind(type(binder), term_var(i, s), body)

    def modal_sum(d, sub: lmu.Lmu, gamma: frozenset[tuple[int, str]]) -> Folded:
        # the leading decided pieces, summed as num/den on integers
        num, den = 0, 1
        entries = iter(d.entries)
        for target, weight in entries:
            value = walk(sub, gamma, target)
            if isinstance(value, lmu.Lmu):
                acc = scale(weight, value)
                if num:
                    acc = combine(lmu.OPlus, Fraction(num, den), acc)
                break
            n = weight.numerator * value.numerator
            if n:
                piece_den = weight.denominator * value.denominator
                if den % piece_den:
                    num, den = num * piece_den + n * den, den * piece_den
                else:
                    num += n * (den // piece_den)
                if num >= den:
                    return _ONE
        else:
            return Fraction(num, den)
        # the rest piece by piece, so each constant keeps its place in the term
        for target, weight in entries:
            acc = combine(lmu.OPlus, acc, scale(weight, walk(sub, gamma, target)))
            if not isinstance(acc, lmu.Lmu) and acc == 1:
                break
        return acc

    def modal(
        cls: type, node: lmu.Diamond | lmu.Box, gamma: frozenset[tuple[int, str]], s: str
    ) -> Folded:
        absorbing = _RULES[cls][0]
        dists = m.distributions(s)
        if not dists:  # the empty join is 0, the empty meet 1
            return _ZERO if cls is lmu.Join else _ONE
        acc: Folded | None = None
        for d in dists:
            piece = modal_sum(d, node.body, gamma)
            acc = piece if acc is None else combine(cls, acc, piece)
            if not isinstance(acc, lmu.Lmu) and acc == absorbing:
                break
        return acc

    def walk(node: lmu.Lmu, gamma: frozenset[tuple[int, str]], s: str) -> Folded:
        # the node reads no entry numbered above its innermost free variable
        if node.free:
            k = max(map(number.__getitem__, node.free))
            gamma = frozenset(e for e in gamma if e[0] <= k)
        else:
            gamma = _CLOSED
        key = (node, gamma, s)
        hit = memo.get(key)
        if hit is not None:
            return hit
        steps[0] += 1
        if steps[0] > max_steps:
            raise TranslationError(f"translation exceeded {max_steps} steps")
        if isinstance(node, lmu.Var):
            i = number[node.name]
            if (i, s) in gamma:
                result: Folded = lmu.Var(term_var(i, s))
            else:
                # a closed binder already solved at s is read as its value;
                # without an evaluator the walk keeps the reference terms
                solved = memo.get((binders[i - 1], _CLOSED, s)) if evaluator is not None else None
                result = solved if isinstance(solved, Fraction) else expand(i, gamma, s)
        elif isinstance(node, lmu.Const):
            result = node.value
        elif isinstance(node, lmu.Prop):
            result = interp.value(node.name, s)
        elif isinstance(node, lmu.CoProp):
            result = 1 - interp.value(node.name, s)
        elif isinstance(node, lmu.Scalar):
            # 0*t is decided without walking t
            result = _ZERO if node.factor == 0 else scale(node.factor, walk(node.body, gamma, s))
        elif isinstance(node, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
            # the connective carries over to the term unchanged; a left
            # operand that decides it leaves the right one unwalked
            cls = type(node)
            left = walk(node.left, gamma, s)
            if not isinstance(left, lmu.Lmu) and left == _RULES[cls][0]:
                result = left
            else:
                result = combine(cls, left, walk(node.right, gamma, s))
        elif isinstance(node, lmu.Diamond):
            result = modal(lmu.Join, node, gamma, s)
        elif isinstance(node, lmu.Box):
            result = modal(lmu.Meet, node, gamma, s)
        elif isinstance(node, (lmu.Mu, lmu.Nu)):
            solve = fragment is not None and not node.free
            decided = fragment.states(node) if solve else None
            if decided is not None:  # a boolean fixed point, decided as a set
                result = _ONE if s in decided else _ZERO
            else:
                result = expand(number[node.var], gamma, s)
                if solve and isinstance(result, lmu.Lmu):  # solved: keep its value
                    result = evaluator.value(result, {})
        else:
            raise TypeError(f"not a formula: {node!r}")
        memo[key] = result
        return result

    per_state: dict[str, Folded] = {}
    try:
        for state in targets:
            result = walk(phi, _CLOSED, state)
            if isinstance(result, lmu.Lmu):
                if evaluator is not None:
                    raise InternalInvariantError(f"the check left a term at {state!r}")
            elif evaluator is None:
                result = lmu.constant(result)
            per_state[state] = result
    finally:
        walk = None  # break the cycles, all through `walk`: the memo is freed on exit
    return per_state

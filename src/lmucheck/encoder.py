"""Compilation of PCTL state formulas into closed fixed-point formulas.

Probability comparisons become threshold macros, path quantifiers become
fixed points over the underlying graph, and `A`-style next/until steps use
the totalized box `[]phi /\\ <>1`, which is 0 at deadlocks and agrees with
`[]phi` elsewhere. A bound's macro, boundary bounds included, is
`lmu.expand_threshold`'s. Since `lmu.dual` maps the constant `q*1` to
`(1-q)*1`, `!` over a bound gives the complementary macro and `a & b`, read
as `!(!a | !b)`, gives the `/\\` of the two encodings.
"""

from __future__ import annotations

from fractions import Fraction

from . import lmu, pctl

__all__ = ["encode_pctl"]


def _boxdot(phi: lmu.Lmu) -> lmu.Lmu:
    return lmu.Meet(lmu.Box(phi), lmu.Diamond(lmu.ONE))


def _until_loop(goal: lmu.Lmu, guard: lmu.Lmu, step) -> lmu.Lmu:
    """mu X. goal \\/ (guard /\\ step(X)) with X fresh for both operands."""
    avoid = lmu.used_names(goal) | lmu.used_names(guard)
    x = next(lmu.fresh_names(avoid))
    return lmu.Mu(x, lmu.Join(goal, lmu.Meet(guard, step(lmu.Var(x)))))


def encode_pctl(phi: pctl.PctlState) -> lmu.Lmu:
    """Closed fixed-point formula with the same per-state truth value."""
    if isinstance(phi, pctl.TrueFormula):
        return lmu.ONE
    if isinstance(phi, pctl.Prop):
        return lmu.Prop(phi.name)
    if isinstance(phi, pctl.Or):
        return lmu.Join(encode_pctl(phi.left), encode_pctl(phi.right))
    if isinstance(phi, pctl.Not):
        return lmu.dual(encode_pctl(phi.body))
    if isinstance(phi, (pctl.Exists, pctl.Forall)):
        # `E` is the bound `> 0` over `<>`, `A` the bound `>= 1` over `[]`
        strict, q, modality = (
            (True, Fraction(0), lmu.Diamond) if isinstance(phi, pctl.Exists) else (False, Fraction(1), _boxdot)
        )

        def step(x: lmu.Lmu) -> lmu.Lmu:
            return lmu.expand_threshold(strict, q, modality(x))

        path = phi.path
        if isinstance(path, pctl.Next):
            return step(encode_pctl(path.body))
        return _until_loop(encode_pctl(path.right), encode_pctl(path.left), step)
    if isinstance(phi, (pctl.ProbExists, pctl.ProbForall)):
        modality = lmu.Diamond if isinstance(phi, pctl.ProbExists) else _boxdot
        path = phi.path
        if isinstance(path, pctl.Next):
            body = modality(encode_pctl(path.body))
        else:
            body = _until_loop(encode_pctl(path.right), encode_pctl(path.left), modality)
        return lmu.expand_threshold(phi.strict, phi.bound, body)
    raise TypeError(f"not a PCTL state formula: {phi!r}")

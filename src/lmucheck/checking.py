"""End-to-end model checking: formula and model in, exact values out.

Checking runs in strata, as CTL/PCTL checkers label states bottom-up: each
proper closed subformula that contains a binder (in PCTL encodings, every
inner `P`, `E` and `A` operator), innermost first, is translated and
evaluated at every state, then replaced by a fresh proposition holding
those values. A closed subformula means the same in every environment, so
no value changes, and the translator folds the proposition like a label.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, pctl, terms
from .encoder import encode_pctl
from .evaluator import DEFAULT_LOOP_CAP, TermEvaluator
from .model import Interpretation, Pnts, validate_model
from .oracle import OracleError
from .translator import translate_all

__all__ = ["CheckOutcome", "model_check_lmu", "model_check_pctl"]


@dataclass(frozen=True)
class CheckOutcome:
    """Exact per-state values in canonical state order, with provenance."""

    values: dict[str, Fraction]
    iterations: int
    formula: lmu.Lmu  # the fixed-point formula actually evaluated


def model_check_lmu(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
    max_loop_iterations: int = DEFAULT_LOOP_CAP,
) -> CheckOutcome:
    """Value of a closed formula at each requested state (default: all)."""
    evaluator = TermEvaluator(max_loop_iterations)
    targets = states if states is not None else m.states
    root, interp = _stratify(phi, m, interp, evaluator)
    per_state = translate_all(root, m, interp, targets)
    values = {s: _closed_value(evaluator, per_state[s]) for s in targets}
    return CheckOutcome(values, evaluator.loop_iterations, phi)


def _closed_value(evaluator: TermEvaluator, term: terms.Term) -> Fraction:
    """Value of a closed per-state term; a constant `q*1` is q, read off
    without evaluator state or a loop."""
    if type(term) is terms.TScalar and term.body is terms.T_ONE:
        return term.factor
    return evaluator.value(term, {})


def _stratify(
    phi: lmu.Lmu, m: Pnts, interp: Interpretation, evaluator: TermEvaluator
) -> tuple[lmu.Lmu, Interpretation]:
    """The formula with its strata replaced by fresh propositions, and the
    interpretation extended by their values.

    The outermost binders inside a closed subformula are closed themselves,
    so once the strata inside it are replaced, a closed subformula contains
    a binder only if it is one: the strata are the proper closed binders.
    """
    names = None
    new_of: dict[lmu.Lmu, lmu.Lmu] = {}  # the nodes the rewriting changes
    for node in reversed(list(lmu.subformulas(phi))):  # children first
        if node in new_of:
            continue
        new = node
        if new_of:  # nodes are unique, so unchanged children rebuild the node
            new = type(node)(*(new_of.get(v, v) for v in map(node.__getattribute__, node._fields)))
        if isinstance(new, (lmu.Mu, lmu.Nu)) and not new.free and node is not phi:
            if names is None:
                names = lmu.fresh_names(lmu.used_names(phi) | set(interp.valuation))
                interp = Interpretation(dict(interp.valuation))
            per_state = translate_all(new, m, interp)
            name = next(names)
            interp.valuation[name] = {s: _closed_value(evaluator, per_state[s]) for s in m.states}
            new = lmu.Prop(name)
        if new is not node:
            new_of[node] = new
    return new_of.get(phi, phi), interp


def model_check_pctl(
    phi: pctl.PctlState,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
    max_loop_iterations: int = DEFAULT_LOOP_CAP,
) -> CheckOutcome:
    """Encode a PCTL formula and evaluate it; requires a boolean valuation."""
    problems = validate_model(m, interp, boolean_mode=True)
    if problems:
        raise OracleError("; ".join(problems))
    encoded = encode_pctl(phi)
    outcome = model_check_lmu(encoded, m, interp, states, max_loop_iterations)
    return CheckOutcome(outcome.values, outcome.iterations, encoded)

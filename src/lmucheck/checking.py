"""End-to-end model checking: formula and model in, exact values out.

A check is one translation walk and one evaluator. Closed subformulas come
first, as CTL/PCTL checkers label states bottom-up: the walk evaluates each
proper closed fixed point (in PCTL encodings, every inner `P`, `E` and `A`
operator) at each state where it reaches one, innermost first, and keeps
the value in its memo, where the enclosing formula folds it like a label.
A closed subformula means the same in every environment, so no value
changes. The same evaluator then evaluates each root term.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, pctl, terms
from .encoder import encode_pctl
from .evaluator import TermEvaluator
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
) -> CheckOutcome:
    """Value of a closed formula at each requested state (default: all)."""
    evaluator = TermEvaluator()
    targets = states if states is not None else m.states
    per_state = translate_all(phi, m, interp, targets, evaluator=evaluator)
    values = {s: _closed_value(evaluator, per_state[s]) for s in targets}
    return CheckOutcome(values, evaluator.loop_iterations, phi)


def _closed_value(evaluator: TermEvaluator, term: terms.Term) -> Fraction:
    """Value of a closed per-state term; a constant `q*1` is q, read off
    without evaluator state or a loop."""
    if type(term) is terms.TScalar and term.body is terms.T_ONE:
        return term.factor
    return evaluator.value(term, {})


def model_check_pctl(
    phi: pctl.PctlState,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
) -> CheckOutcome:
    """Encode a PCTL formula and evaluate it; requires a boolean valuation."""
    problems = validate_model(m, interp, boolean_mode=True)
    if problems:
        raise OracleError("; ".join(problems))
    encoded = encode_pctl(phi)
    outcome = model_check_lmu(encoded, m, interp, states)
    return CheckOutcome(outcome.values, outcome.iterations, encoded)

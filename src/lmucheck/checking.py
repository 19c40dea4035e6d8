"""End-to-end model checking: formula and model in, exact values out."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, pctl
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
    per_state = translate_all(phi, m, interp, targets)
    values: dict[str, Fraction] = {}
    for s in targets:
        values[s] = evaluator.value(per_state[s], {})
    return CheckOutcome(values, evaluator.loop_iterations, phi)


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

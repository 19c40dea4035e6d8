"""End-to-end model checking: formula and model in, exact values out.

A check is one `translator.translate_all` call with one evaluator, which
returns each requested state's value. The translator's module docstring
says how: a root in the boolean fragment is decided as a set of states,
and otherwise the walk solves each closed fixed point it reaches, the root
included, innermost first, and reads one solved at a state as that value
at later states. So the loop count depends on the order of the requested
states; the values do not.

A PCTL check encodes the formula and checks the encoding. Its only extra
precondition is a boolean valuation, which it tests on the labels alone;
the model's other invariants are checked where it is built (`parse_model`,
or `validate_model` for a hand-built one), not again here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, pctl
from .encoder import encode_pctl
from .evaluator import TermEvaluator
from .model import Interpretation, Pnts
from .oracle import require_boolean
from .translator import translate_all

__all__ = ["CheckOutcome", "model_check_lmu", "model_check_pctl"]


@dataclass(frozen=True)
class CheckOutcome:
    """Exact per-state values in the order of the requested states
    (canonical by default), and the loop iterations run."""

    values: dict[str, Fraction]
    iterations: int


def model_check_lmu(
    phi: lmu.Lmu,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
) -> CheckOutcome:
    """Value of a closed formula at each requested state (default: all)."""
    evaluator = TermEvaluator()
    values = translate_all(phi, m, interp, states, evaluator=evaluator)
    return CheckOutcome(values, evaluator.loop_iterations)


def model_check_pctl(
    phi: pctl.PctlState,
    m: Pnts,
    interp: Interpretation,
    states: tuple[str, ...] | None = None,
) -> CheckOutcome:
    """Check the fixed-point encoding of a PCTL formula; raises OracleError
    on a non-boolean valuation."""
    require_boolean(interp)
    return model_check_lmu(encode_pctl(phi), m, interp, states)

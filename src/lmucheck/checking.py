"""End-to-end model checking: formula and model in, exact values out.

A formula in the boolean fragment (`translator.BooleanFragment`: fixed
points over 0/1 labels, `\\/`, `/\\` and one-step thresholds, which every
qualitative PCTL operator encodes to) is decided as a set of states, with no
walk and no loop. That is exact: its body maps 0/1 vectors to 0/1 vectors
monotonically, so the Kleene iterates on sets are 0/1 and reach the least
(greatest) fixed point over [0, 1]^S within |S| steps.

Any other check is one translation walk and one evaluator. Closed
subformulas come first, as CTL/PCTL checkers label states bottom-up: the
walk evaluates each proper closed fixed point (in PCTL encodings, every
inner `P`, `E` and `A` operator) at each state where it reaches one,
innermost first, deciding one in the boolean fragment as a set, and keeps
the value in its memo, where the enclosing formula folds it like a label.
A closed subformula means the same in every environment, so no value
changes. The walk evaluates each state's root term as soon as it has built
it, and the terms of the states after it read each closed fixed point
already solved at a state as that value instead of unfolding it again
(Bekič's lemma: a solved component of a fixed point may stand in for
itself). So the loop count depends on the order of the requested states;
the values do not. The walk hands back a state that constants decide as
its value and every other state as its term, whose value the same
evaluator then reads from its cache.

A PCTL check encodes the formula and checks the encoding. Its only extra
precondition is a boolean valuation, which it tests on the labels alone;
the model's other invariants are checked where it is built (`parse_model`,
or `validate_model` for a hand-built one), not again here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lmu, pctl, terms
from .encoder import encode_pctl
from .evaluator import TermEvaluator
from .model import Interpretation, Pnts
from .oracle import require_boolean
from .translator import BooleanFragment, translate_all

__all__ = ["CheckOutcome", "model_check_lmu", "model_check_pctl"]

_ONE, _ZERO = Fraction(1), Fraction(0)


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
    targets = m.states if states is None else states
    decided = BooleanFragment(m, interp).states(phi)
    # an unknown requested state falls through to the walk, which refuses it
    if decided is not None and all(s in m.index for s in targets):
        return CheckOutcome({s: _ONE if s in decided else _ZERO for s in targets}, 0)
    evaluator = TermEvaluator()
    per_state = translate_all(phi, m, interp, states, evaluator=evaluator)
    values = {
        s: evaluator.value(t, {}) if isinstance(t, terms.Term) else t
        for s, t in per_state.items()
    }
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

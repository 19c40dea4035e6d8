"""Exact model checker for a quantitative fixed-point logic over finite
rational probabilistic nondeterministic transition systems, with a PCTL
front end and an independent PCTL oracle for differential validation."""

from .checking import CheckOutcome, model_check_lmu, model_check_pctl
from .encoder import encode_pctl
from .evaluator import (
    EvalError,
    EvalResult,
    InternalInvariantError,
    TermEvaluator,
    eval_term,
)
from .model import (
    Distribution,
    Interpretation,
    ModelError,
    Pnts,
    parse_model,
    render_model,
    validate_model,
)
from .oracle import (
    KleeneOutcome,
    OracleError,
    direct_value,
    kleene_lmu,
    kleene_term,
    pctl_oracle,
    until_prob_md,
)
from .parser import ParseError, parse_lmu, parse_pctl, parse_term
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"

"""Command-line front end.

Subcommands: `check` runs the full pipeline on a model file and a formula,
`encode` prints the fixed-point encoding of a PCTL formula, `translate`
prints the per-state terms with constants folded, `eval` evaluates a term
at a point, and `oracle` runs the independent PCTL checker. Values print as
exact rationals; decimal approximations are opt-in and marked with `~`.
Exit codes: 0 success, 1 input error (including nesting beyond the
recursion limit), 2 internal invariant failure or any other unexpected
exception.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from fractions import Fraction

from . import lmu, pctl
from .checking import CheckOutcome, model_check_lmu, model_check_pctl
from .encoder import encode_pctl
from .evaluator import (
    EvalError,
    InternalInvariantError,
    TermEvaluator,
    render_inequality,
    render_lin_expr,
)
from .model import Interpretation, ModelError, parse_model
from .oracle import OracleError, pctl_oracle, prob_operator_values
from .parser import ParseError, parse_lmu, parse_pctl, parse_term
from .rationals import RationalParseError, approx_decimal, format_rational, parse_rational
from .translator import TranslationError, translate_all

RECURSION_LIMIT = 20_000


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelError(str(exc)) from exc
    return parse_model(text)


def _require_declared(formula: pctl.PctlState | lmu.Lmu, interp: Interpretation) -> None:
    """Refuse a formula that reads a proposition the model file does not
    declare: the library reads such a proposition as 0 at every state, so a
    misspelt name would give a wrong answer instead of an error."""
    walker = pctl.propositions if isinstance(formula, pctl.PctlState) else lmu.propositions
    missing = sorted(walker(formula) - interp.valuation.keys())
    if missing:
        raise ModelError(f"undeclared propositions: {', '.join(missing)}")


def _load_input(args: argparse.Namespace):
    """The model, the parsed `--pctl`/`--lmu` formula and the target states
    (`--state`, else all) of a command that reads a model file."""
    m, interp = _load_model(args.model)
    phi = parse_pctl(args.pctl) if args.pctl is not None else parse_lmu(args.lmu)
    _require_declared(phi, interp)
    if args.state and args.state not in m.index:
        raise ModelError(f"unknown state {args.state!r}")
    return m, interp, phi, (args.state,) if args.state else m.states


def _report_lines(outcome: CheckOutcome, show_approx: bool) -> list[str]:
    lines = []
    for s, v in outcome.values.items():
        line = f"{s} = {format_rational(v)}"
        if show_approx:
            line += f" (~{approx_decimal(v)})"
        lines.append(line)
    return lines


def _report_json(formula_text: str, values: dict[str, Fraction], iterations: int) -> str:
    doc = {
        "formula": formula_text,
        "results": [
            {
                "state": s,
                "num": str(v.numerator),
                "den": str(v.denominator),
                "approx": approx_decimal(v),
            }
            for s, v in values.items()
        ],
        "iterations": iterations,
    }
    return json.dumps(doc)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.cross_check and args.pctl is None:
        raise ModelError("--cross-check needs a PCTL formula")
    m, interp, phi, targets = _load_input(args)
    if args.pctl is not None:
        outcome = model_check_pctl(phi, m, interp, targets)
        formula_text = args.pctl
    else:
        outcome = model_check_lmu(phi, m, interp, targets)
        formula_text = args.lmu
    if args.cross_check:
        verdict = pctl_oracle(phi, m, interp)
        for s, v in outcome.values.items():
            expected = Fraction(1 if verdict[s] else 0)
            if v != expected:
                raise InternalInvariantError(
                    f"cross-check mismatch at {s}: pipeline {format_rational(v)}, "
                    f"oracle {format_rational(expected)}"
                )
    if args.json:
        print(_report_json(formula_text, outcome.values, outcome.iterations))
    else:
        for line in _report_lines(outcome, args.approx):
            print(line)
        if args.cross_check:
            print("cross-check: ok")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    print(lmu.render_lmu(encode_pctl(parse_pctl(args.pctl))))
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    m, interp, phi, targets = _load_input(args)
    formula = encode_pctl(phi) if args.pctl is not None else phi
    per_state = translate_all(formula, m, interp, targets)
    for s in targets:
        if len(targets) == 1:
            print(lmu.render_lmu(per_state[s]))
        else:
            print(f"{s}: {lmu.render_lmu(per_state[s])}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    term = parse_term(args.term)
    point: dict[str, Fraction] = {}
    for binding in args.at or []:
        name, eq, value = binding.partition("=")
        if not eq:
            raise EvalError(f"expected name=value, got {binding!r}")
        name = name.strip()
        if name in point:
            raise EvalError(f"variable {name!r} is bound more than once")
        point[name] = parse_rational(value)
    evaluator = TermEvaluator()
    result = evaluator.evaluate(term, point)
    print(format_rational(result.value))
    if args.approx:
        print(f"~{approx_decimal(result.value)}")
    if args.show_conditions:
        print(f"expr: {render_lin_expr(result.expr, result.variables)}")
        for ineq in result.conditions:
            print(f"cond: {render_inequality(ineq, result.variables)}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    if args.json and args.probs:
        raise OracleError("--probs cannot be combined with --json")
    m, interp, phi, states = _load_input(args)
    verdict = pctl_oracle(phi, m, interp)
    if args.json:
        values = {s: Fraction(int(verdict[s])) for s in states}
        print(_report_json(args.pctl, values, 0))
        return 0
    for s in states:
        print(f"{s} = {1 if verdict[s] else 0}")
    if args.probs:
        if isinstance(phi, (pctl.ProbExists, pctl.ProbForall)):
            probs = prob_operator_values(phi, m, interp)
            for s in states:
                print(f"prob {s} = {format_rational(probs[s])}")
        else:
            print("prob: formula has no outer probability operator")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call."""
    ap = argparse.ArgumentParser(prog="lmucheck", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="model-check a formula, exact values per state")
    check.add_argument("--model", required=True, help="model file")
    group = check.add_mutually_exclusive_group(required=True)
    group.add_argument("--lmu", help="fixed-point formula")
    group.add_argument("--pctl", help="PCTL state formula (boolean models)")
    check.add_argument("--state", help="restrict to one state")
    check.add_argument("--json", action="store_true", help="structured output")
    check.add_argument("--approx", action="store_true", help="include labelled decimals")
    check.add_argument(
        "--cross-check", action="store_true", help="verify PCTL results against the oracle"
    )
    check.set_defaults(func=_cmd_check)

    encode = sub.add_parser("encode", help="print the fixed-point encoding of a PCTL formula")
    encode.add_argument("--pctl", required=True)
    encode.set_defaults(func=_cmd_encode)

    tr = sub.add_parser("translate", help="print the per-state term for a formula and model")
    tr.add_argument("--model", required=True)
    trg = tr.add_mutually_exclusive_group(required=True)
    trg.add_argument("--lmu")
    trg.add_argument("--pctl")
    tr.add_argument("--state", help="translate at this state only")
    tr.set_defaults(func=_cmd_translate)

    ev = sub.add_parser("eval", help="evaluate a term at a point")
    ev.add_argument("--term", required=True)
    ev.add_argument("--at", action="append", metavar="NAME=RATIONAL")
    ev.add_argument("--approx", action="store_true")
    ev.add_argument(
        "--show-conditions", action="store_true", help="print the conditioned expression"
    )
    ev.set_defaults(func=_cmd_eval)

    orc = sub.add_parser("oracle", help="run the independent PCTL checker")
    orc.add_argument("--model", required=True)
    orc.add_argument("--pctl", required=True)
    orc.add_argument("--state")
    orc.add_argument("--json", action="store_true")
    orc.add_argument(
        "--probs", action="store_true", help="also print the extremal probabilities"
    )
    orc.set_defaults(func=_cmd_oracle)
    return ap


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (
        ModelError,
        ParseError,
        RationalParseError,
        EvalError,
        OracleError,
        TranslationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print(
            f"error: input nests too deeply for the recursion limit ({RECURSION_LIMIT})",
            file=sys.stderr,
        )
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never an input error: keep the traceback
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

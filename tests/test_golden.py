"""Pinned CLI output: exact stdout for seeded open terms (`eval
--show-conditions`), for alternating fixed points on fractional 2-state
models (`check --lmu --json`, with `iterations`), for the fixed-point
encoding of PCTL formulas (`encode --pctl`) and for per-state terms
(`translate --lmu` and `translate --pctl`).

The outputs pin the canonical condition order, the conditions' exact
coefficients and the loop's iteration counts, which no change to the
evaluator's arithmetic may move. The `encode` and `translate` cases pin the
rendered text of formulas and terms: every connective, modality, scalar and
binder, with the parentheses the precedence rules call for. No case here depends on which of two tied
bounds the loop picks;
`test_evaluator.py::test_tied_bounds_keep_the_first_candidate` pins that.
`GOLDEN` was recorded with

    PYTHONPATH=src:tests python tests/test_golden.py > tests/golden_cli_outputs.json

and is only re-recorded when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

from generators import (
    rand_binder_term,
    rand_bool_interp,
    rand_interp,
    rand_lmu,
    rand_model_exact,
    rand_pctl,
    rand_point,
)
from lmucheck import lmu, pctl, terms
from lmucheck.cli import main
from lmucheck.model import render_model
from lmucheck.rationals import format_rational

GOLDEN = Path(__file__).with_name("golden_cli_outputs.json")
MODEL = "{model}"  # stands for the model file's path in a recorded argv
EVAL_CASES = 30
CHECK_CASES = 10
ENCODE_CASES = 24
TRANSLATE_CASES = 16
# every PCTL operator, `&` and `false` included, before the seeded ones
PCTL_OPERATORS = (
    "true & !false",
    "!(P1 | P2) & P1",
    "E X !P1 | A X P2",
    "E[P1 U P2 & !P1] & A[true U P1]",
    "Pmax>1/3 [X P1 | P2]",
    "Pmax>=1/2 [P1 U E X P2]",
    "Pmin>0 [X !(P1 & P2)]",
    "Pmin>=1 [P1 & P2 U A[P1 U P2]]",
)
# every connective, modality, scalar and binder, nested both ways round
LMU_CONNECTIVES = (
    "mu X. (P1 \\/ <>X) /\\ nu Y. ([]Y (.) ~P2)",
    "nu Y. (1/2*(P1 (+) []Y) (.) (~P1 \\/ P2 /\\ <>Y))",
    "mu X. ((P1 (.) P2) (+) 1/3*([]<>X)) \\/ (0 /\\ 1)",
    "nu Y. mu X. ((P1 /\\ <>Y) \\/ 2/3*(<>X)) (.) (1 (+) ~P2)",
)


def build_cases() -> list[dict]:
    """The seeded inputs: `argv`, plus the model file text for `check` and
    `translate`."""
    rng = random.Random("golden-cli")
    cases = []
    for i in range(EVAL_CASES):
        names = tuple(f"x{j}" for j in range(2 + i % 3))
        t = rand_binder_term(rng, depth=4, free_vars=names)
        at = [f"--at={n}={format_rational(v)}" for n, v in rand_point(rng, names).items()]
        argv = ["eval", "--term", terms.render_term(t), *at, "--show-conditions"]
        cases.append({"argv": argv, "model": None})
    for i in range(CHECK_CASES):
        m = rand_model_exact(rng, 2, n_dists=2, max_support=2)
        env = ("Z", "Y", "X")[-(2 + i % 2):]  # nu Y. mu X. ... or mu Z. nu Y. mu X. ...
        parts = [
            lmu.Meet(
                rng.choice((lmu.Prop, lmu.CoProp))(rng.choice(("P1", "P2"))),
                (lmu.Diamond if rng.random() < 0.5 else lmu.Box)(lmu.Var(v)),
            )
            for v in env
        ]
        body = parts[0]
        for part in parts[1:]:
            body = (lmu.Join if rng.random() < 0.7 else lmu.OPlus)(body, part)
        for v in reversed(env):
            body = (lmu.Mu if v in ("X", "Z") else lmu.Nu)(v, body)
        argv = ["check", "--model", MODEL, "--lmu", lmu.render_lmu(body), "--json"]
        cases.append({"argv": argv, "model": render_model(m, rand_interp(rng, m))})
    pctl_texts = list(PCTL_OPERATORS)
    while len(pctl_texts) < ENCODE_CASES:
        left, right = (pctl.render_pctl(rand_pctl(rng, 2)) for _ in range(2))
        pctl_texts.append(f"({left}) & {right}" if rng.random() < 0.3 else left)
    cases += [{"argv": ["encode", "--pctl", text], "model": None} for text in pctl_texts]
    lmu_texts = iter(LMU_CONNECTIVES)
    for i in range(TRANSLATE_CASES):
        m = rand_model_exact(rng, 2, n_dists=2, max_support=2)
        if i % 4 == 3:
            argv = ["translate", "--model", MODEL, "--pctl", pctl_texts[i]]
            interp = rand_bool_interp(rng, m)
        else:
            text = next(lmu_texts, None) or lmu.render_lmu(rand_lmu(rng, 3))
            argv = ["translate", "--model", MODEL, "--lmu", text]
            interp = rand_interp(rng, m)
        cases.append({"argv": argv, "model": render_model(m, interp)})
    return cases


def run_case(case: dict, model_path: str) -> tuple[int, str]:
    argv = [model_path if a == MODEL else a for a in case["argv"]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_cli_outputs(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(recorded) == EVAL_CASES + CHECK_CASES + ENCODE_CASES + TRANSLATE_CASES
    model_path = tmp_path / "m.pnts"
    for case in recorded:
        if case["model"] is not None:
            model_path.write_text(case["model"], encoding="utf-8")
        code, out = run_case(case, str(model_path))
        if code == 0 and "--json" in case["argv"]:
            # values first, so a failure says whether they moved or only
            # the loop counts did
            got, pinned = json.loads(out), json.loads(case["stdout"])
            assert got["formula"] == pinned["formula"], ("formula", case["argv"])
            assert got["results"] == pinned["results"], ("values", case["argv"])
        assert (code, out) == (0, case["stdout"]), case["argv"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "m.pnts"
        cases = build_cases()
        for case in cases:
            if case["model"] is not None:
                model_path.write_text(case["model"], encoding="utf-8")
            code, case["stdout"] = run_case(case, str(model_path))
            if code != 0:
                sys.exit(f"exit code {code} for {case['argv']}")
    json.dump(cases, sys.stdout, indent=1)
    sys.stdout.write("\n")

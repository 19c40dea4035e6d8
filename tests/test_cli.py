import json
import random
import sys

import pytest

from generators import rand_bool_interp, rand_model_exact
from lmucheck import cli, model, oracle
from lmucheck.cli import main
from lmucheck.evaluator import EvalError, InternalInvariantError
from lmucheck.model import ModelError, render_model
from lmucheck.oracle import OracleError
from lmucheck.parser import ParseError, parse_pctl
from lmucheck.rationals import RationalParseError
from lmucheck.translator import TranslationError

COIN = """state s0 s1
prop P = { s0: 0, s1: 1 }
trans s0 -> { s0: 1/2, s1: 1/2 }
"""

WORKED_EXAMPLE = "mu x. (nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1)"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "coin.pnts"
    path.write_text(COIN)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_lmu(capsys, model_file):
    code, out, _ = run(capsys, "check", "--model", model_file, "--lmu", "<>P", "--state", "s0")
    assert code == 0
    assert out == "s0 = 1/2\n"


def test_check_all_states_in_order(capsys, model_file):
    code, out, _ = run(capsys, "check", "--model", model_file, "--lmu", "<>P")
    assert code == 0
    assert out.splitlines() == ["s0 = 1/2", "s1 = 0"]


def test_check_json_schema(capsys, model_file):
    code, out, _ = run(capsys, "check", "--model", model_file, "--lmu", "<>P", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["formula"] == "<>P"
    assert doc["results"][0] == {"state": "s0", "num": "1", "den": "2", "approx": "0.5"}
    assert doc["iterations"] == 0  # `<>P` writes no fixed point, so no loop runs


def test_check_pctl_cross_check(capsys, model_file):
    code, out, _ = run(
        capsys,
        "check",
        "--model",
        model_file,
        "--pctl",
        "Pmax>=1/2 [ true U P ]",
        "--cross-check",
    )
    assert code == 0
    assert "cross-check: ok" in out


def test_eval_worked_example(capsys):
    code, out, _ = run(capsys, "eval", "--term", WORKED_EXAMPLE)
    assert code == 0
    assert out == "1\n"


def test_eval_with_point_and_conditions(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        "--term",
        "nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1",
        "--at",
        "x=1/4",
        "--show-conditions",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/2"
    assert lines[1] == "expr: 1/2"
    assert any("cond:" in line for line in lines[2:])


def test_eval_refuses_repeated_binding(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the term was evaluated")

    monkeypatch.setattr(cli.TermEvaluator, "evaluate", no_work)
    code, out, err = run(
        capsys, "eval", "--term", "x (+) y", "--at", "x=1/2", "--at", " x =1/3", "--at", "y=1/4"
    )
    assert code == 1 and out == ""
    assert err == "error: variable 'x' is bound more than once\n"


def test_encode_prints_formula(capsys):
    code, out, _ = run(capsys, "encode", "--pctl", "E X P")
    assert code == 0
    assert out.strip() == "mu _T1. (_T1 (+) <>P)"


def test_translate_prints_term(capsys, model_file):
    code, out, _ = run(
        capsys, "translate", "--model", model_file, "--lmu", "<>P", "--state", "s0"
    )
    assert code == 0
    # the folded term: 1/2*0*1 (+) 1/2*1*1 folds to the constant 1/2
    assert out.strip() == "1/2*1"
    assert run(capsys, "eval", "--term", out.strip())[1] == "1/2\n"


def test_translate_all_states(capsys, model_file):
    code, out, _ = run(capsys, "translate", "--model", model_file, "--lmu", "mu X. (P \\/ <>X)")
    assert code == 0
    # folded: P = 0 at s0 leaves `<>X`, P = 1 at s1 decides the binder
    assert out.splitlines() == [
        "s0: mu x_1@s0. (1/2*x_1@s0 (+) 1/2*1)",
        "s1: 1*1",
    ]
    # `check` computes the closed inner fixed point first; `translate`
    # still prints it as a term inside the outer one
    nested = "mu X. (1/2*(<>X) (+) nu Y. (1/4*1 (+) <>Y /\\ 1/2*~P))"
    _, nested_out, _ = run(capsys, "translate", "--model", model_file, "--lmu", nested)
    assert nested_out.splitlines() == [
        "s0: mu x_1@s0. (1/2*1/2*x_1@s0 (+) nu x_2@s0. (1/4*1 (+) 1/2*x_2@s0 /\\ 1/2*1))",
        "s1: 0*1",
    ]
    for formula, printed in (("mu X. (P \\/ <>X)", out), (nested, nested_out)):
        _, checked, _ = run(capsys, "check", "--model", model_file, "--lmu", formula)
        assert len(checked.splitlines()) == 2
        for line, value in zip(printed.splitlines(), checked.splitlines()):
            state, term = line.split(": ")
            assert f"{state} = {run(capsys, 'eval', '--term', term)[1]}" == value + "\n"


def test_translate_unknown_state(capsys, model_file):
    code, out, err = run(
        capsys, "translate", "--model", model_file, "--lmu", "<>P", "--state", "s9"
    )
    assert code == 1 and out == ""
    assert err == "error: unknown state 's9'\n"


def test_oracle_subcommand(capsys, model_file):
    code, out, _ = run(
        capsys, "oracle", "--model", model_file, "--pctl", "Pmax>=1/2 [ true U P ]", "--probs"
    )
    assert code == 0
    lines = out.splitlines()
    assert "s0 = 1" in lines
    assert any(line.startswith("prob s0 = 1") for line in lines)


def test_oracle_and_cross_check_beyond_a_million_schedulers(capsys, tmp_path):
    # 20 states with two distributions each: 2**20 memoryless schedulers
    rng = random.Random(2)
    m = rand_model_exact(rng, 20)
    path = tmp_path / "wide.pnts"
    path.write_text(render_model(m, rand_bool_interp(rng, m)))
    formula = "Pmax>=1/2 [ P1 U P2 ]"
    code, out, err = run(capsys, "oracle", "--model", str(path), "--pctl", formula, "--probs")
    assert code == 0 and err == ""
    verdicts, probs = out.splitlines()[:20], out.splitlines()[20:]
    assert [line.split(" = ")[0] for line in probs] == [f"prob {s}" for s in m.states]
    assert any(line.endswith(" = 3/4") for line in probs)  # not only 0 and 1
    code, out, err = run(
        capsys, "check", "--model", str(path), "--pctl", formula, "--cross-check"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == verdicts + ["cross-check: ok"]


def test_input_error_exit_code(capsys, model_file):
    code, _, err = run(capsys, "check", "--model", model_file, "--lmu", "mu X. (")
    assert code == 1
    assert "error" in err


def test_unreadable_model_exit_code(capsys):
    code, _, err = run(capsys, "check", "--model", "/nonexistent.pnts", "--lmu", "1")
    assert code == 1
    assert "error" in err


def test_check_approx_is_labelled(capsys, model_file):
    code, out, _ = run(
        capsys, "check", "--model", model_file, "--lmu", "<>P", "--state", "s0", "--approx"
    )
    assert code == 0
    assert out == "s0 = 1/2 (~0.5)\n"


def test_oracle_json(capsys, model_file):
    code, out, _ = run(
        capsys, "oracle", "--model", model_file, "--pctl", "E X P", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["state"] for r in doc["results"]] == ["s0", "s1"]
    assert doc["results"][0]["num"] == "1"


def test_byte_identical_reports(capsys, model_file):
    _, first, _ = run(
        capsys, "check", "--model", model_file, "--pctl", "Pmax>=1/2 [ true U P ]", "--json"
    )
    _, second, _ = run(
        capsys, "check", "--model", model_file, "--pctl", "Pmax>=1/2 [ true U P ]", "--json"
    )
    assert first == second


def test_oracle_probs_next(capsys, model_file):
    code, out, _ = run(
        capsys, "oracle", "--model", model_file, "--pctl", "Pmin>1/2 [ X P ]", "--probs"
    )
    assert code == 0
    # s0 reaches P with 1/2 in one step, not more; s1 is a deadlock
    assert out.splitlines() == ["s0 = 0", "s1 = 0", "prob s0 = 1/2", "prob s1 = 0"]


def test_oracle_probs_without_outer_operator(capsys, model_file):
    code, out, _ = run(capsys, "oracle", "--model", model_file, "--pctl", "E X P", "--probs")
    assert code == 0
    assert out.splitlines() == [
        "s0 = 1",
        "s1 = 0",
        "prob: formula has no outer probability operator",
    ]


# -- fail fast -----------------------------------------------------------------


def test_oracle_json_with_probs_is_refused(capsys, model_file):
    code, out, err = run(
        capsys, "oracle", "--model", model_file, "--pctl", "E X P", "--json", "--probs"
    )
    assert code == 1 and out == ""
    assert "--probs cannot be combined with --json" in err


def test_cross_check_without_pctl_is_refused_before_work(capsys, monkeypatch, model_file):
    def no_work(*args, **kwargs):
        raise AssertionError("the formula was evaluated")

    monkeypatch.setattr(cli, "model_check_lmu", no_work)
    code, out, err = run(
        capsys, "check", "--model", model_file, "--lmu", "<>P", "--cross-check"
    )
    assert code == 1 and out == ""
    assert "--cross-check needs a PCTL formula" in err


def test_oracle_unknown_state_is_refused_before_work(capsys, monkeypatch, model_file):
    def no_work(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "pctl_oracle", no_work)
    code, out, err = run(
        capsys, "oracle", "--model", model_file, "--pctl", "E X P", "--state", "s9"
    )
    assert code == 1 and out == ""
    assert "unknown state 's9'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--lmu", "<>P3 \\/ ~Q"],
        ["check", "--pctl", "E [P U (P3 | Q)]"],
        ["translate", "--lmu", "<>P3 \\/ ~Q"],
        ["translate", "--pctl", "E [P U (P3 | Q)]"],
        ["oracle", "--pctl", "Pmax>=1/2 [X !P3] & A [Q U P]"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_undeclared_propositions_are_refused(capsys, model_file, argv):
    # the library reads an undeclared proposition as 0 everywhere; at the
    # command line a misspelt name is an input error, not a wrong answer
    code, out, err = run(capsys, argv[0], "--model", model_file, *argv[1:])
    assert code == 1 and out == ""
    assert "undeclared propositions: P3, Q" in err


NESTED_PCTL = "Pmin>1/8 [X Pmax>=1/2 [X P] | Pmax>0 [P U Pmin>=1/2 [X P]]]"


def test_pctl_check_guards_each_route_once(capsys, monkeypatch, model_file):
    # parsing checks the model's invariants itself; a cross-checked PCTL
    # check then tests the labels once for the pipeline and once for the
    # oracle, however many probability operators the formula nests
    calls = {"validate_model": 0, "require_boolean": 0}
    modules = [mod for name, mod in sys.modules.items() if name.split(".")[0] == "lmucheck"]
    for owner, name in ((model, "validate_model"), (oracle, "require_boolean")):
        inner = getattr(owner, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        for mod in modules:  # every module that imported the name, too
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted)
    code, _, _ = run(
        capsys, "check", "--model", model_file, "--pctl", NESTED_PCTL, "--cross-check"
    )
    assert code == 0
    assert calls == {"validate_model": 0, "require_boolean": 2}


# -- exit codes ------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc",
    [
        ModelError("bad model"),
        ParseError("bad syntax", 3),
        RationalParseError("bad rational"),
        EvalError("bad point"),
        OracleError("bad oracle input"),
        TranslationError("bad translation"),
        OSError("unreadable"),
    ],
    ids=lambda exc: type(exc).__name__,
)
def test_input_errors_exit_1(capsys, monkeypatch, model_file, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "model_check_lmu", fail)
    code, _, err = run(capsys, "check", "--model", model_file, "--lmu", "<>P")
    assert code == 1
    assert err == f"error: {exc}\n"


def test_invariant_failure_exit_2(capsys, monkeypatch, model_file):
    def fail(*args, **kwargs):
        raise InternalInvariantError("broken invariant")

    monkeypatch.setattr(cli, "model_check_lmu", fail)
    code, _, err = run(capsys, "check", "--model", model_file, "--lmu", "<>P")
    assert code == 2
    assert err == "internal error: broken invariant\n"


@pytest.mark.parametrize("exc_type", [ValueError, TypeError])
def test_unexpected_errors_exit_2(capsys, monkeypatch, model_file, exc_type):
    def fail(*args, **kwargs):
        raise exc_type("stray")

    monkeypatch.setattr(cli, "model_check_lmu", fail)
    code, _, err = run(capsys, "check", "--model", model_file, "--lmu", "<>P")
    assert code == 2
    assert err.startswith("Traceback")
    assert err.endswith(f"internal error: {exc_type.__name__}: stray\n")


def test_non_utf8_model_is_a_model_error(capsys, tmp_path):
    path = tmp_path / "latin1.pnts"
    path.write_bytes("state s0\nprop P = { s0: 1 } # \xe9\n".encode("latin-1"))
    with pytest.raises(ModelError):
        cli._load_model(str(path))
    code, _, err = run(capsys, "check", "--model", str(path), "--lmu", "P")
    assert code == 1
    assert err.startswith("error: 'utf-8' codec can't decode")


def test_recursion_limit_exit_1(capsys, model_file):
    code, out, err = run(
        capsys, "check", "--model", model_file, "--lmu", "<>" * 30_000 + "P"
    )
    assert code == 1 and out == ""
    assert "recursion limit (20000)" in err


# s0 and s1 satisfy P1, s2 satisfies P2; from s1 one step reaches P1 with
# probability 1/2, and s0 reaches P2 only through s1
LADDER = """state s0 s1 s2
prop P1 = { s0: 1, s1: 1 }
prop P2 = { s2: 1 }
trans s0 -> { s0: 1/2, s1: 1/2 }
trans s1 -> { s0: 1/2, s2: 1/2 }
trans s2 -> { s2: 1 }
"""


@pytest.mark.parametrize(
    "formula, loops",
    [
        # a next-step threshold over boolean labels has a decided argument, so
        # its binder folds and no loop runs
        ("E X P1", False),
        ("A X P1", False),
        ("Pmax>=1/2 [X P1]", False),
        ("Pmin>1/3 [X P1]", False),
        # a qualitative until on boolean labels is decided as a state set,
        # with no loop
        ("E [P1 U P2]", False),
        # a probabilistic until keeps its binder and the loop runs
        ("Pmax>=1/2 [P1 U P2]", True),
    ],
)
def test_threshold_loops_run_only_over_undecided_arguments(capsys, tmp_path, formula, loops):
    path = tmp_path / "ladder.pnts"
    path.write_text(LADDER)
    code, out, _ = run(capsys, "check", "--model", str(path), "--pctl", formula, "--json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["iterations"] > 0) == loops
    m, interp = model.parse_model(LADDER)
    verdicts = oracle.pctl_oracle(parse_pctl(formula), m, interp)
    assert {r["state"]: r["num"] for r in doc["results"]} == {
        s: str(int(v)) for s, v in verdicts.items()
    }

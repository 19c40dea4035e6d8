"""Hard cases as counted work: values against the closed forms of
`families.py` or the oracle, and the loop iterations a check runs or the
calls it makes, as exact counts.

Iteration counts repeat exactly from run to run, so each ceiling is the
count itself, with no margin for noise. A change that lowers one lowers the
ceiling with it; a change that raises one changes the check, and says so.
`<>` on ruin-N roughly doubles its iterations per state (102 at N = 8, 208
at N = 9, 400 at N = 10), so N = 9 keeps the case under a second.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from families import ruin_cases
from generators import rand_bool_interp, rand_model_exact
from lmucheck import lmu
from lmucheck.checking import model_check_lmu, model_check_pctl
from lmucheck.encoder import encode_pctl
from lmucheck.evaluator import TermEvaluator
from lmucheck.oracle import pctl_oracle
from lmucheck.parser import parse_pctl


@pytest.mark.parametrize("kind, n, iterations", [("<>", 9, 208), ("[]", 32, 465), ("dtmc", 32, 465)])
def test_ruin_values_within_counted_iterations(kind, n, iterations):
    m, interp, phi, exact = ruin_cases(n)[kind]
    out = model_check_lmu(phi, m, interp)
    assert out.values == exact
    assert out.iterations == iterations


def test_next_step_bounds_run_no_walk(monkeypatch):
    # the boolean fragment decides next-step bounds other than `> 0` and
    # `>= 1` from each distribution's mass, so a nested next-step check at
    # 200 states neither renames binders for the walk nor evaluates a term
    rng = random.Random("next-step bounds")
    m = rand_model_exact(rng, 200)
    interp = rand_bool_interp(rng, m)
    calls = Counter()
    for owner, name in ((lmu, "normalize_binders"), (TermEvaluator, "value")):

        def counted(*args, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    # `!` and `&` over a bound encode to the complementary bound and a meet
    for text in ("Pmax>=3/8 [X Pmin>1/4 [X P1]]", "!Pmax>=3/8 [X P1] & Pmin>1/4 [X !P1]", _ladder(8)):
        phi = parse_pctl(text)
        out = model_check_pctl(phi, m, interp)
        assert calls == Counter(), text
        assert out.values == {s: Fraction(v) for s, v in pctl_oracle(phi, m, interp).items()}, text


def _ladder(depth: int) -> str:
    """`P2 | P1 & (...)` nested depth deep around `Pmin>1/3 [X P1]`."""
    text = "Pmin>1/3 [X P1]"
    for _ in range(depth):
        text = f"P2 | P1 & ({text})"
    return text


def test_conjunction_ladder_encodes_linearly():
    # each `&` dualises the bound below it twice; `dual(q*1) = (1-q)*1` gives
    # the bound back, so a level adds its four nodes `P2 \/ P1 /\ (...)`
    for depth in range(9):
        phi = encode_pctl(parse_pctl(_ladder(depth)))
        assert sum(1 for _ in lmu.subformulas(phi)) == 11 + 4 * depth

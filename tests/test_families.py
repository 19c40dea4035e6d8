"""Checks against the closed forms of `families.py`, at every state.

The sizes are those that finish in a blink today: `<>` on ruin-N grows
2-3x per state in loop iterations and stops here at N = 8, below the
blow-up at N >= 10 that waits for irredundant loop results. The PCTL forms
on ruin-N stop at N = 6: the `Pmax` forms at every inner state take 120 loop
iterations there, 672 at N = 7 and 1,428 (about a second) at N = 8, a size
that belongs to the benchmark's ladders. The oracle's policy iteration
alone solves ruin-N at N = 32, 64 and 128, one sparse exact system per
round.
"""

from fractions import Fraction

import pytest

from families import knuth_yao, ruin_cases
from lmucheck.checking import model_check_lmu, model_check_pctl
from lmucheck.oracle import pctl_oracle, until_prob_md
from lmucheck.parser import parse_lmu, parse_pctl
from lmucheck.rationals import format_rational


@pytest.mark.parametrize(
    "kind, mode, largest", [("<>", "max", 8), ("[]", "min", 16), ("dtmc", "max", 16)]
)
def test_ruin_matches_its_closed_form(kind, mode, largest):
    # the check, and the oracle's policy iteration for the extremal
    # probability of reaching G, agree with the table at every state
    for n in range(1, largest + 1):
        m, interp, phi, exact = ruin_cases(n)[kind]
        assert model_check_lmu(phi, m, interp).values == exact, n
        assert until_prob_md(m, frozenset(m.states), frozenset({f"s{n}"}), mode) == exact, n


@pytest.mark.parametrize("kind, mode", [("<>", "max"), ("[]", "min"), ("dtmc", "max")])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_ruin_policy_iteration_at_scale(n, kind, mode):
    m, _, _, exact = ruin_cases(n)[kind]
    assert until_prob_md(m, frozenset(m.states), frozenset({f"s{n}"}), mode) == exact


def check_pctl(text, m, interp):
    """The check's verdicts, once they agree with the oracle at every state."""
    phi = parse_pctl(text)
    verdict = pctl_oracle(phi, m, interp)
    values = model_check_pctl(phi, m, interp).values
    assert values == {s: Fraction(v) for s, v in verdict.items()}, text
    return verdict


@pytest.mark.parametrize("mode, kind", [("max", "<>"), ("min", "[]")])
def test_ruin_pctl_bounds_are_tight_at_every_inner_state(mode, kind):
    # at si the extremal probability of reaching G is the table's value, so
    # the bound `>=` it holds there and `>` it does not
    for n in range(2, 7):
        m, interp, _, exact = ruin_cases(n)[kind]
        for i in range(1, n):
            bound = format_rational(exact[f"s{i}"])
            assert check_pctl(f"P{mode}>={bound} [true U G]", m, interp)[f"s{i}"], (n, i)
            assert not check_pctl(f"P{mode}>{bound} [true U G]", m, interp)[f"s{i}"], (n, i)


def test_knuth_yao_die_is_fair():
    m, interp = knuth_yao()
    for k in range(1, 7):
        values = model_check_lmu(parse_lmu(f"mu X. (D{k} \\/ <>X)"), m, interp).values
        assert values == until_prob_md(m, frozenset(m.states), frozenset({f"d{k}"}), "max"), k
        assert values["s0"] == Fraction(1, 6), k


@pytest.mark.parametrize(
    "text, at_s0",
    [
        ("Pmax>=1/6 [true U D1]", True),
        ("Pmax>1/6 [true U D1]", False),
        ("Pmin>=1/6 [true U D6]", True),
        ("Pmin>1/6 [true U D6]", False),
    ],
)
def test_knuth_yao_pctl_matches_the_oracle(text, at_s0):
    m, interp = knuth_yao()
    assert check_pctl(text, m, interp)["s0"] is at_s0

"""Checks against the closed forms of `families.py`, at every state.

The sizes are those that finish in a blink today: `<>` on ruin-N grows
2-3x per state in loop iterations and stops here at N = 8, below the
blow-up at N >= 10 that waits for irredundant loop results.
"""

import pytest

from families import ruin_cases
from lmucheck.checking import model_check_lmu
from lmucheck.oracle import until_prob_md


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

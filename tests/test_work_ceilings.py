"""Hard cases as counted work: values against the closed forms of
`families.py` and the loop iterations a check runs, as exact counts.

Iteration counts repeat exactly from run to run, so each ceiling is the
count itself, with no margin for noise. A change that lowers one lowers the
ceiling with it; a change that raises one changes the check, and says so.
`<>` on ruin-N roughly doubles its iterations per state (102 at N = 8, 208
at N = 9, 400 at N = 10), so N = 9 keeps the case under a second.
"""

import pytest

from families import ruin_cases
from lmucheck.checking import model_check_lmu


@pytest.mark.parametrize("kind, n, iterations", [("<>", 9, 208), ("[]", 32, 465), ("dtmc", 32, 465)])
def test_ruin_values_within_counted_iterations(kind, n, iterations):
    m, interp, phi, exact = ruin_cases(n)[kind]
    out = model_check_lmu(phi, m, interp)
    assert out.values == exact
    assert out.iterations == iterations

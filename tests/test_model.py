import random
from fractions import Fraction

import pytest

from generators import rand_interp, rand_model, rand_model_exact
from lmucheck.model import (
    Distribution,
    Interpretation,
    ModelError,
    Pnts,
    parse_model,
    render_model,
    validate_model,
)

TWO_STATE = """
# a coin flip into a deadlock
state s0 s1
prop P = { s0: 1, s1: 0 }
trans s0 -> { s0: 1/2, s1: 1/2 }
"""


def test_parse_two_state():
    m, interp = parse_model(TWO_STATE)
    assert m.states == ("s0", "s1")
    assert len(m.distributions("s0")) == 1
    assert m.distributions("s1") == ()
    assert interp.value("P", "s0") == 1
    assert interp.value("P", "s1") == 0


def test_parse_rejects_bad_sum():
    with pytest.raises(ModelError, match=r"sums to 1/3, expected 1"):
        parse_model("state s0 s1\ntrans s0 -> { s1: 1/3 }")


def test_parse_rejects_zero_weight():
    with pytest.raises(ModelError, match="zero weight"):
        parse_model("state s0 s1\ntrans s0 -> { s0: 1, s1: 0 }")


def test_parse_rejects_unknown_state():
    with pytest.raises(ModelError, match="unknown state"):
        parse_model("state s0\ntrans s0 -> { s9: 1 }")


def test_parse_rejects_valuation_out_of_range():
    with pytest.raises(ModelError, match=r"outside \[0, 1\]"):
        parse_model("state s0\nprop P = { s0: 3/2 }")


def test_parse_error_carries_line_number():
    with pytest.raises(ModelError, match="line 3"):
        parse_model("state s0\n\nnonsense here\n")


def test_duplicate_distributions_are_merged():
    m, _ = parse_model(
        "state s0\ntrans s0 -> { s0: 1 }\ntrans s0 -> { s0: 1 }"
    )
    assert len(m.distributions("s0")) == 1


def test_validate_flags_explicit_zero_weight():
    order = {"s0": 0, "s1": 1}
    d = Distribution.from_dict({"s0": Fraction(1), "s1": Fraction(0)}, order)
    m = Pnts(("s0", "s1"), {"s0": (d,)})
    errors = validate_model(m, Interpretation({}))
    assert any("zero weight" in e for e in errors)


def test_render_parse_round_trip_fixed():
    m, interp = parse_model(TWO_STATE)
    m2, interp2 = parse_model(render_model(m, interp))
    assert m2 == m
    assert interp2 == interp


def test_render_parse_round_trip_random():
    rng = random.Random(11)
    for _ in range(50):
        m = rand_model(rng)
        interp = rand_interp(rng, m)
        m2, interp2 = parse_model(render_model(m, interp))
        assert m2 == m
        assert interp2 == interp
        assert validate_model(m2, interp2) == []  # parsing alone validates


def test_rand_model_exact_refuses_impossible_sizes():
    # one state allows only the distribution {s0: 1}, so two distinct ones never exist
    with pytest.raises(ValueError, match=r"n_dists=2 .* n_states=1"):
        rand_model_exact(random.Random(0), 1)
    m = rand_model_exact(random.Random(0), 1, n_dists=1)
    assert [len(m.transitions[s]) for s in m.states] == [1]


# parsing checks every invariant `validate_model` checks, line by line, so a
# parsed model never needs the second pass; the tests above cover a target
# outside the declared states, a zero weight, a sum below 1 and a valuation
# above 1
@pytest.mark.parametrize(
    "text, message",
    [
        ("state s0 s0", "line 1: duplicate state s0"),
        ("state s0\nstate s0", "line 2: duplicate state s0"),
        ("state s0\ntrans s1 -> { s0: 1 }", "line 2: unknown state s1"),
        ("state s0\nprop P = { s9: 1 }", "line 2: unknown state s9"),
        ("state s0 s1\ntrans s0 -> { s0: 3/2, s1: -1/2 }", r"line 2: weight 3/2 outside \(0, 1\]"),
        ("state s0 s1\ntrans s0 -> { s0: -1/2, s1: 3/2 }", r"line 2: weight -1/2 outside \(0, 1\]"),
        ("state s0 s1\ntrans s0 -> { s0: 1, s1: 1/3 }", "line 2: distribution sums to 4/3"),
        ("state s0\nprop P = { s0: -1 }", r"line 2: valuation -1 outside \[0, 1\]"),
    ],
)
def test_parse_alone_enforces_every_invariant(text, message):
    with pytest.raises(ModelError, match=message):
        parse_model(text)



# one parse reads each rational text once; every use still runs its line's
# checks, and a text that fails is read, and refused, at each use
@pytest.mark.parametrize(
    "text, message",
    [
        # `0` is a label on line 2, then a weight on line 3
        ("state s0 s1\nprop P = { s0: 0 }\ntrans s0 -> { s0: 1, s1: 0 }",
         "line 3: zero weight for s1 must be omitted"),
        # `1/2` is a label on line 2, then the only weight of line 3
        ("state s0 s1\nprop P = { s0: 1/2 }\ntrans s0 -> { s1: 1/2 }",
         "line 3: distribution sums to 1/2, expected 1"),
        # `3/2` is refused where it is first used, as a label or a weight
        ("state s0\nprop P = { s0: 3/2 }\ntrans s0 -> { s0: 3/2 }",
         r"line 2: valuation 3/2 outside \[0, 1\]"),
        ("state s0\ntrans s0 -> { s0: 3/2 }\nprop P = { s0: 3/2 }",
         r"line 2: weight 3/2 outside \(0, 1\]"),
        ("state s0\nprop P = { s0: 1 }\nprop Q = { s0: 3/2 }\ntrans s0 -> { s0: 3/2 }",
         r"line 3: valuation 3/2 outside \[0, 1\]"),
    ],
)
def test_each_use_of_a_rational_is_checked_on_its_line(text, message):
    with pytest.raises(ModelError, match=message):
        parse_model(text)


@pytest.mark.parametrize("bad", ["1/0", "1//2", "x"])
def test_a_malformed_rational_is_refused_every_time(bad):
    for lineno in (2, 3):
        lines = ["state s0", "prop P = { s0: 1 }", "prop Q = { s0: 1 }"]
        lines[lineno - 1] = lines[lineno - 1].replace("1 }", f"{bad} }}")
        for _ in range(2):  # no call remembers a failure
            with pytest.raises(ModelError, match=f"line {lineno}: "):
                parse_model("\n".join(lines))

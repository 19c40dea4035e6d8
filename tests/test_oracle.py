import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import rand_model
from lmucheck.model import Distribution, Interpretation, Pnts, parse_model, render_model
from lmucheck.oracle import (
    OracleError,
    direct_value,
    kleene_lmu,
    kleene_term,
    next_prob,
    pctl_oracle,
    solve_linear_system,
    until_prob_md,
)
from lmucheck.parser import parse_lmu, parse_pctl, parse_term

F = Fraction

HALF_CHANCE = """
state s0 goal sink
prop P1 = { s0: 1 }
prop P2 = { goal: 1 }
trans s0 -> { goal: 1/2, sink: 1/2 }
"""

CHOICE = """
state s0 goal sink
prop G = { goal: 1 }
trans s0 -> { goal: 1 }
trans s0 -> { sink: 1 }
"""

# two end components: s0 and s1 can pass the turn to each other forever
TWO_EXITS = """
state s0 s1 goal sink
trans s0 -> { s1: 1 }
trans s0 -> { goal: 1/2, sink: 1/2 }
trans s1 -> { s0: 1 }
trans s1 -> { goal: 1/4, sink: 3/4 }
"""


def md_schedulers(m: Pnts):
    """All memoryless deterministic schedulers, in canonical product order."""
    choice_states = [s for s in m.states if m.distributions(s)]
    for combo in itertools.product(*(range(len(m.distributions(s))) for s in choice_states)):
        yield dict(zip(choice_states, combo))


def chain_of(m: Pnts, choice) -> Pnts:
    """The chain a scheduler induces: the chosen distribution per state."""
    return Pnts(m.states, {s: (m.distributions(s)[i],) for s, i in choice.items()})


def solve_chain(chain: Pnts, s1, s2) -> dict[str, Fraction]:
    """Until probabilities on a chain, where no scheduler has a choice."""
    hi = until_prob_md(chain, s1, s2, "max")
    assert hi == until_prob_md(chain, s1, s2, "min")
    return hi


def enumerated_until(m: Pnts, s1, s2, mode: str) -> dict[str, Fraction]:
    """The reference for `until_prob_md`: the extremum over every memoryless
    deterministic scheduler of its chain's until probabilities."""
    pick = max if mode == "max" else min
    sols = [solve_chain(chain_of(m, choice), s1, s2) for choice in md_schedulers(m)]
    return {s: pick(sol[s] for sol in sols) for s in m.states}


def test_solve_linear_system_exact():
    a = [{0: F(1), 1: F(-1, 2)}, {1: F(1)}]
    b = [F(1, 2), F(1, 3)]
    x = solve_linear_system(a, b)
    assert x == [F(2, 3), F(1, 3)]
    with pytest.raises(OracleError, match="singular"):
        solve_linear_system([{}], [F(1)])


def test_solve_linear_system_swaps_to_the_first_row_with_the_column():
    # row 0 lacks column 0, so the pivot search must take row 1
    a = [{1: F(2)}, {0: F(1), 1: F(1)}, {0: F(3), 2: F(1)}]
    x = solve_linear_system(a, [F(1), F(2), F(3)])
    assert x == [F(3, 2), F(1, 2), F(-3, 2)]


def test_solve_linear_system_on_ints_returns_fractions():
    x = solve_linear_system([{0: 2, 1: 1}, {0: 1, 1: 3}], [3, 4])
    assert x == [F(1), F(1)]
    assert all(type(v) is Fraction for v in x)


def test_solve_chain_until_examples():
    m, _ = parse_model(HALF_CHANCE)
    sol = until_prob_md(m, frozenset({"s0"}), frozenset({"goal"}), "max")
    assert sol == {"s0": F(1, 2), "goal": F(1), "sink": F(0)}


def test_solve_chain_self_loop():
    m, _ = parse_model(
        "state s0 goal\ntrans s0 -> { s0: 1/2, goal: 1/2 }"
    )
    sol = until_prob_md(m, frozenset({"s0"}), frozenset({"goal"}), "max")
    assert sol["s0"] == 1  # x = x/2 + 1/2 has the unique solution 1


def test_chain_solution_residual():
    rng = random.Random(97)
    for _ in range(40):
        m = rand_model(rng, max_states=4, max_dists=1)
        s1 = frozenset(s for s in m.states if rng.random() < 0.7)
        s2 = frozenset(s for s in m.states if rng.random() < 0.3)
        sol = until_prob_md(m, s1, s2, "max")
        for s in m.states:
            assert 0 <= sol[s] <= 1
            if s in s2 or sol[s] == 0:
                continue
            d = m.distributions(s)[0]
            assert sol[s] == sum((w * sol[t] for t, w in d.entries), F(0))


def test_md_scheduler_enumeration():
    m, _ = parse_model(CHOICE)
    assert len(list(md_schedulers(m))) == 2
    chain = chain_of(m, {"s0": 1})
    assert chain.distributions("s0")[0].support == ("sink",)


def test_until_prob_md_extremes():
    m, _ = parse_model(CHOICE)
    s1 = frozenset({"s0"})
    s2 = frozenset({"goal"})
    assert until_prob_md(m, s1, s2, "max")["s0"] == 1
    assert until_prob_md(m, s1, s2, "min")["s0"] == 0


def test_until_prob_trivial_cases():
    m, _ = parse_model(HALF_CHANCE)
    everything = frozenset(m.states)
    assert until_prob_md(m, frozenset(), everything, "max") == {
        s: F(1) for s in m.states
    }
    single = until_prob_md(m, frozenset({"s0"}), frozenset({"goal"}), "max")
    assert single == until_prob_md(m, frozenset({"s0"}), frozenset({"goal"}), "min")


@pytest.mark.parametrize("loop_first", [True, False])
def test_until_prob_md_self_loop_or_goal(loop_first):
    loop, exit_ = "trans s0 -> { s0: 1 }", "trans s0 -> { goal: 1 }"
    first, second = (loop, exit_) if loop_first else (exit_, loop)
    m, _ = parse_model(f"state s0 goal\n{first}\n{second}")
    s1, s2 = frozenset({"s0"}), frozenset({"goal"})
    # looping forever never reaches goal; starting from the exit, policy
    # iteration alone would see no strictly better choice than value 1
    assert until_prob_md(m, s1, s2, "min") == {"s0": F(0), "goal": F(1)}
    assert until_prob_md(m, s1, s2, "max") == {"s0": F(1), "goal": F(1)}


def test_until_prob_md_end_component_with_two_exits():
    m, _ = parse_model(TWO_EXITS)
    s1, s2 = frozenset({"s0", "s1"}), frozenset({"goal"})
    hi = until_prob_md(m, s1, s2, "max")
    lo = until_prob_md(m, s1, s2, "min")
    # s1 does best by handing over to s0, which exits with 1/2; a switch on a
    # tie at s0 would close the loop and drop both to 0
    assert hi == {"s0": F(1, 2), "s1": F(1, 2), "goal": F(1), "sink": F(0)}
    assert lo["s0"] == 0
    assert hi == enumerated_until(m, s1, s2, "max")
    assert lo == enumerated_until(m, s1, s2, "min")


def test_scheduler_consistency_random():
    rng = random.Random(101)
    for _ in range(25):
        m = rand_model(rng, max_states=5, max_dists=3)
        s1 = frozenset(s for s in m.states if rng.random() < 0.7)
        s2 = frozenset(s for s in m.states if rng.random() < 0.4)
        hi = until_prob_md(m, s1, s2, "max")
        lo = until_prob_md(m, s1, s2, "min")
        for s in m.states:
            assert 0 <= lo[s] <= hi[s] <= 1
        assert hi == enumerated_until(m, s1, s2, "max")
        assert lo == enumerated_until(m, s1, s2, "min")


@st.composite
def until_problems(draw):
    """A model of 1-5 states with 1-3 distinct distributions each, rational
    weights, and random s1 and s2."""
    n = draw(st.integers(1, 5))
    states = tuple(f"s{i}" for i in range(n))
    order = {s: i for i, s in enumerate(states)}
    transitions = {}
    for s in states:
        dists: list[Distribution] = []
        for _ in range(draw(st.integers(1, 3))):
            support = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
            weights = draw(st.lists(st.integers(1, 4), min_size=len(support), max_size=len(support)))
            d = Distribution.from_dict(
                {t: F(w, sum(weights)) for t, w in zip(support, weights)}, order
            )
            if d not in dists:
                dists.append(d)
        transitions[s] = tuple(dists)
    subset = st.frozensets(st.sampled_from(states))
    return Pnts(states, transitions), draw(subset), draw(subset)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(until_problems(), st.sampled_from(["max", "min"]))
def test_policy_iteration_equals_enumeration(problem, mode):
    m, s1, s2 = problem
    # on failure the message is a model file: P1 labels s1, P2 labels s2
    labels = Interpretation({"P1": {s: F(1) for s in s1}, "P2": {s: F(1) for s in s2}})
    assert until_prob_md(m, s1, s2, mode) == enumerated_until(m, s1, s2, mode), (
        f"{mode} [ P1 U P2 ] on\n{render_model(m, labels)}"
    )


def test_next_prob_deadlock_is_zero():
    m, _ = parse_model(HALF_CHANCE)
    probs = next_prob(m, frozenset({"goal"}), "max")
    assert probs == {"s0": F(1, 2), "goal": F(0), "sink": F(0)}


def test_pctl_next_at_deadlock_false():
    m, interp = parse_model(HALF_CHANCE)
    verdict = pctl_oracle(parse_pctl("E X true"), m, interp)
    assert verdict == {"s0": True, "goal": False, "sink": False}
    verdict = pctl_oracle(parse_pctl("A X true"), m, interp)
    assert verdict == {"s0": True, "goal": False, "sink": False}


def test_pctl_until_half_chance():
    m, interp = parse_model(HALF_CHANCE)
    assert pctl_oracle(parse_pctl("Pmax>=1/2 [ P1 U P2 ]"), m, interp)["s0"] is True
    assert pctl_oracle(parse_pctl("Pmax>1/2 [ P1 U P2 ]"), m, interp)["s0"] is False


def test_pctl_forall_until_on_cycle():
    m, interp = parse_model(
        "state s0 s1\nprop P = { s1: 1 }\ntrans s0 -> { s0: 1 }"
    )
    # the only path loops forever without reaching P
    assert pctl_oracle(parse_pctl("A[ true U P ]"), m, interp)["s0"] is False
    assert pctl_oracle(parse_pctl("E[ true U P ]"), m, interp)["s0"] is False


def test_pctl_rejects_non_boolean():
    m, interp = parse_model("state s0\nprop P = { s0: 1/2 }")
    with pytest.raises(OracleError, match="boolean"):
        pctl_oracle(parse_pctl("P"), m, interp)


def test_direct_value_accepts_constants():
    m, interp = parse_model(HALF_CHANCE.replace("P1", "P"))
    values = direct_value(parse_lmu("<>P \\/ 1/4*1"), m, interp)
    assert values == {"s0": F(1, 4), "goal": F(1, 4), "sink": F(1, 4)}
    values = direct_value(parse_lmu("[]~P (.) 1 \\/ 0"), m, interp)
    assert values == {"s0": F(1), "goal": F(1), "sink": F(1)}


def test_kleene_term_truncation():
    out = kleene_term(parse_term("mu x. (1/2*x (+) 1/4*1)"), {}, budget=3)
    assert out.value == F(3, 8)  # iterates 0, 1/4, 3/8
    assert not out.stabilized
    assert out.lower_sound and not out.upper_sound


def test_kleene_term_stabilizes():
    inner = parse_term("nu y. (y (.) (x (+) 1/2*1))")
    out = kleene_term(inner, {"x": F(1, 2)}, budget=10)
    assert out.value == 1 and out.stabilized
    out2 = kleene_term(parse_term("mu x. x"), {}, budget=10)
    assert out2.value == 0 and out2.stabilized


def test_kleene_lmu_matches_boolean_reachability():
    m, interp = parse_model(HALF_CHANCE)
    out = kleene_lmu(parse_lmu("mu X. (P2 \\/ <>X)"), m, interp, budget=50)
    assert out.stabilized
    assert out.value == {"s0": F(1, 2), "goal": F(1), "sink": F(0)}


def test_three_routes_agree_on_random_pctl():
    # conditioned-expression pipeline, scheduler enumeration, and bounded
    # value iteration on the encoded formula must coincide whenever the
    # iteration stabilizes
    from generators import rand_bool_interp, rand_pctl
    from lmucheck.checking import model_check_pctl
    from lmucheck.encoder import encode_pctl

    rng = random.Random(654321)
    stabilized = 0
    for _ in range(30):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_bool_interp(rng, m)
        phi = rand_pctl(rng, depth=2)
        pipeline = model_check_pctl(phi, m, interp).values
        verdict = pctl_oracle(phi, m, interp)
        for s in m.states:
            assert pipeline[s] == (F(1) if verdict[s] else F(0))
        out = kleene_lmu(encode_pctl(phi), m, interp, budget=400, fuel=20_000)
        if out.stabilized:
            stabilized += 1
            assert out.value == pipeline
    assert stabilized > 0

import random
from fractions import Fraction

import pytest

from generators import rand_interp, rand_lmu, rand_model
from lmucheck import lmu, terms
from lmucheck.evaluator import eval_closed
from lmucheck.model import parse_model
from lmucheck.oracle import direct_value, kleene_lmu
from lmucheck.parser import parse_lmu
from lmucheck.translator import (
    TranslationError,
    domination_relation,
    gamma_step,
    index_binders,
    term_var,
    translate,
)

F = Fraction

COIN = """
state s0 s1
prop P = { s0: 0, s1: 1 }
trans s0 -> { s0: 1/2, s1: 1/2 }
"""


def test_domination_nested():
    phi = parse_lmu("mu X. nu Y. (X /\\ Y)")
    assert domination_relation(lmu.normalize_binders(phi)) == frozenset({(1, 2)})


def test_domination_siblings_empty():
    phi = parse_lmu("mu X. (X) \\/ mu Y. (Y)")
    assert domination_relation(lmu.normalize_binders(phi)) == frozenset()


def test_domination_transitive_nesting():
    phi = parse_lmu("mu X. mu Y. mu Z. (X \\/ Y \\/ Z)")
    assert domination_relation(lmu.normalize_binders(phi)) == frozenset(
        {(1, 2), (1, 3), (2, 3)}
    )


def test_index_binders_requires_distinct():
    phi = parse_lmu("mu X. (X \\/ mu X. X)")
    with pytest.raises(TranslationError, match="distinct"):
        index_binders(phi)


def test_gamma_step():
    assert gamma_step(frozenset(), 1, "s0", frozenset()) == {(1, "s0")}
    assert gamma_step(frozenset({(2, "s0")}), 1, "s1", frozenset({(1, 2)})) == {(1, "s1")}
    assert gamma_step(frozenset({(2, "s0")}), 1, "s1", frozenset()) == {
        (2, "s0"),
        (1, "s1"),
    }


def test_translate_diamond_expectation():
    m, interp = parse_model(COIN)
    t = translate(parse_lmu("<>P"), m, interp, "s0")
    expected = terms.TOPlus(
        terms.TScalar(F(1, 2), terms.tconst(F(0))),
        terms.TScalar(F(1, 2), terms.tconst(F(1))),
    )
    assert t == expected
    assert eval_closed(t) == F(1, 2)


def test_translate_deadlock_modalities():
    m, interp = parse_model(COIN)
    assert translate(parse_lmu("<>P"), m, interp, "s1") == terms.tconst(F(0))
    assert translate(parse_lmu("[]P"), m, interp, "s1") == terms.tconst(F(1))


def test_translate_reachability_value():
    m, interp = parse_model(COIN)
    t = translate(parse_lmu("mu X. (P \\/ <>X)"), m, interp, "s0")
    assert eval_closed(t) == 1  # 1/2 + 1/4 + ... exactly


def test_translate_requires_closed_formula():
    m, interp = parse_model(COIN)
    with pytest.raises(TranslationError, match="closed"):
        translate(lmu.Var("X"), m, interp, "s0")


def test_translate_unknown_state():
    m, interp = parse_model(COIN)
    with pytest.raises(TranslationError, match="unknown state"):
        translate(lmu.ONE, m, interp, "s9")


def test_translated_terms_are_closed():
    rng = random.Random(67)
    for _ in range(30):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        for s in m.states:
            t = translate(phi, m, interp, s)
            assert terms.term_free_variables(t) == frozenset()


def test_term_var_rendering():
    assert term_var(2, "s1") == "x_2@s1"


def test_fixed_point_free_matches_direct_recursion():
    rng = random.Random(71)
    for _ in range(60):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=rng.randint(0, 3), fixed_point_free=True)
        direct = direct_value(phi, m, interp)
        for s in m.states:
            assert eval_closed(translate(phi, m, interp, s)) == direct[s]


def test_translation_value_within_kleene_bounds():
    rng = random.Random(73)
    for _ in range(25):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        outcome = kleene_lmu(phi, m, interp, budget=300)
        for s in m.states:
            value = eval_closed(translate(phi, m, interp, s))
            if outcome.stabilized:
                assert outcome.value[s] == value
            else:
                if outcome.lower_sound:
                    assert outcome.value[s] <= value
                if outcome.upper_sound:
                    assert outcome.value[s] >= value


def test_memoized_translation_is_pure():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    assert translate(phi, m, interp, "s0") == translate(phi, m, interp, "s0")


def test_translation_step_cap():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    with pytest.raises(TranslationError, match="steps"):
        translate(phi, m, interp, "s0", max_steps=2)


def test_translate_all_shares_subterms():
    m, interp = parse_model(COIN)
    phi = parse_lmu("mu X. (P \\/ <>X)")
    from lmucheck.translator import translate_all

    per_state = translate_all(phi, m, interp)
    assert set(per_state) == {"s0", "s1"}
    assert per_state["s0"] == translate(phi, m, interp, "s0")
    # `lmucheck translate` prints translate_all's terms; one memo shared by
    # all states must not change any state's term
    rng = random.Random(79)
    for _ in range(40):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_interp(rng, m)
        phi = rand_lmu(rng, depth=3)
        per_state = translate_all(phi, m, interp)
        for s in m.states:
            assert per_state[s] == translate(phi, m, interp, s)

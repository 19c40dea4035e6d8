"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Every comparison is exact rational equality; the stated wall-clock limits
are asserted. Randomized corpora use fixed seeds, so runs are reproducible.
"""

import json
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from generators import (
    cond_holds,
    rand_binder_term,
    rand_bool_interp,
    rand_interp,
    rand_lmu,
    rand_model,
    rand_model_exact,
    rand_pctl,
    rand_point,
    satisfying_samples,
    term_dag,
)
from lmucheck import lmu, pctl
from lmucheck.checking import model_check_lmu, model_check_pctl
from lmucheck.cli import main as cli_main
from lmucheck.encoder import encode_pctl
from lmucheck.evaluator import LinExpr, eval_term
from lmucheck.model import Interpretation
from lmucheck.oracle import direct_value, kleene_term, pctl_oracle
from lmucheck.parser import parse_term
from lmucheck.translator import translate_all

F = Fraction

WORKED_EXAMPLE = "mu x. (nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1)"
WORKED_EXAMPLE_INNER = "nu y. (y (.) (x (+) 1/2*1)) \\/ 1/2*1"


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.monotonic() - start
        in_time = elapsed < limit_seconds
        status = "PASS" if ok and in_time else "FAIL"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"{name}: {elapsed:.2f}s over the {limit_seconds}s limit"


def one_variable_region(conditions) -> tuple[Fraction, bool, Fraction, bool]:
    """Tightest (lo, lo_strict, hi, hi_strict) interval of a one-variable set."""
    lo, lo_strict = F(-10**9), False
    hi, hi_strict = F(10**9), False
    for ineq in conditions:
        assert len(ineq.coeffs) == 1
        (_, c), a = ineq.coeffs[0], ineq.const
        bound = F(-a, c)
        if c > 0:
            if bound > lo or (bound == lo and ineq.strict):
                lo, lo_strict = bound, ineq.strict
        else:
            if bound < hi or (bound == hi and ineq.strict):
                hi, hi_strict = bound, ineq.strict
    return lo, lo_strict, hi, hi_strict


def test_worked_example_golden_values():
    with criterion("worked-example golden values", 1.0):
        assert eval_term(parse_term(WORKED_EXAMPLE), {}).value == 1
        inner = parse_term(WORKED_EXAMPLE_INNER)
        low = eval_term(inner, {"x": F(1, 4)})
        assert low.expr == LinExpr((), F(1, 2))
        assert one_variable_region(low.conditions) == (F(0), False, F(1, 2), True)
        high = eval_term(inner, {"x": F(3, 4)})
        assert high.expr == LinExpr((), F(1))
        assert one_variable_region(high.conditions) == (F(1, 2), False, F(1), False)


def test_threshold_semantics():
    rng = random.Random(2024)
    with criterion("threshold semantics", 30.0):
        for case in range(50):
            m = rand_model(rng, max_states=3, max_dists=2)
            interp = rand_interp(rng, m)
            phi = rand_lmu(rng, depth=rng.randint(0, 2))
            rel = rng.choice([">0", "=1", ">", ">="])
            q = F(rng.randint(1, 7), 8) if rel in (">", ">=") else None
            strict = rel in (">0", ">")
            bound = {">0": F(0), "=1": F(1)}.get(rel, q)
            wrapped = lmu.expand_threshold(strict, bound, phi)
            base = model_check_lmu(phi, m, interp).values
            gated = model_check_lmu(wrapped, m, interp).values
            for s in m.states:
                if rel == ">0":
                    holds = base[s] > 0
                elif rel == "=1":
                    holds = base[s] == 1
                elif rel == ">":
                    holds = base[s] > q
                else:
                    holds = base[s] >= q
                assert gated[s] == (F(1) if holds else F(0)), (case, s, rel, q)


def test_pctl_differential_against_oracle():
    rng = random.Random(1337)
    with criterion("PCTL differential vs oracle", 600.0):
        for case in range(200):
            m = rand_model(rng, max_states=4, max_dists=3, max_den=8)
            interp = rand_bool_interp(rng, m)
            phi = rand_pctl(rng, depth=rng.randint(0, 3))
            pipeline = model_check_pctl(phi, m, interp).values
            verdict = pctl_oracle(phi, m, interp)
            for s in m.states:
                assert pipeline[s] in (F(0), F(1)), (case, s)
                assert pipeline[s] == (F(1) if verdict[s] else F(0)), (case, s)


def test_pctl_until_ladder_on_exact_size_models():
    """The regression markers of unfolded translation: `E`/`A [P1 U P2]` at
    8, 16 and 32 states, `Pmax>=q [P1 U P2]` at 8, 16 and 32, and
    `Pmin>=1/8`, `Pmin>1/2`, `Pmin>=7/8 [P1 U P2]` at 16 and 32, on boolean
    models with exactly two distributions per state (2**32 memoryless
    schedulers at 32 states), through the library API at the interpreter's
    default recursion limit."""
    rng = random.Random(2024)
    p1, p2 = pctl.Prop("P1"), pctl.Prop("P2")
    until = pctl.Until(p1, p2)
    ladder = [(n, q) for n in (8, 16, 32) for q in (pctl.Exists(until), pctl.Forall(until))]
    ladder += [(n, pctl.ProbExists(False, F(k, 8), until)) for n in (8, 16, 32) for k in (1, 4, 7)]
    ladder += [
        (n, pctl.ProbForall(strict, bound, until))
        for n in (16, 32)
        for strict, bound in ((False, F(1, 8)), (True, F(1, 2)), (False, F(7, 8)))
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; conftest raises it
    try:
        with criterion("PCTL until ladder on exact-size models", 60.0):
            for n, phi in ladder:
                for case in range(5):
                    m = rand_model_exact(rng, n)
                    interp = rand_bool_interp(rng, m)
                    pipeline = model_check_pctl(phi, m, interp).values
                    verdict = pctl_oracle(phi, m, interp)
                    for s in m.states:
                        assert pipeline[s] == (F(1) if verdict[s] else F(0)), (n, case, s)
                    per_state = translate_all(encode_pctl(phi), m, interp)
                    assert len(term_dag(per_state.values())) <= 1000, (n, case)
    finally:
        sys.setrecursionlimit(limit)


def test_nested_pctl_on_sparse_labels():
    """Nested until with sparse goals, `E`/`A [P1 U Pmax>=1/2 [P1 U P2]]`
    and `Pmin>=1/2 [P1 U E [P1 U P2]]`, at 12 and 16 states, with `P2` on
    about 15% and `P1` on about 75% of states, through the library API at
    the interpreter's default recursion limit. The inner operator is a
    closed subformula, evaluated where the translation walk reaches it and
    folded as a value."""
    inner = pctl.Until(pctl.Prop("P1"), pctl.Prop("P2"))
    formulas = [
        pctl.Exists(pctl.Until(pctl.Prop("P1"), pctl.ProbExists(False, F(1, 2), inner))),
        pctl.Forall(pctl.Until(pctl.Prop("P1"), pctl.ProbExists(False, F(1, 2), inner))),
        pctl.ProbForall(False, F(1, 2), pctl.Until(pctl.Prop("P1"), pctl.Exists(inner))),
    ]
    ladder = [(12, seed) for seed in (1, 2, 3, 4)] + [(16, seed) for seed in (1, 2, 3)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; conftest raises it
    try:
        with criterion("nested PCTL on sparse labels", 60.0):
            for n, seed in ladder:
                rng = random.Random(seed)
                m = rand_model_exact(rng, n)
                interp = Interpretation({
                    "P1": {s: F(rng.random() < 0.75) for s in m.states},
                    "P2": {s: F(rng.random() < 0.15) for s in m.states},
                })
                for phi in formulas:
                    pipeline = model_check_pctl(phi, m, interp).values
                    verdict = pctl_oracle(phi, m, interp)
                    for s in m.states:
                        assert pipeline[s] == (F(1) if verdict[s] else F(0)), (n, seed, s)
    finally:
        sys.setrecursionlimit(limit)


def test_qualitative_until_on_sparse_labels():
    """`E`/`A [P1 U P2]`, `E [P1 U A [P1 U P2]]` and `Pmin>=1/2 [P1 U E [P1
    U P2]]` at 32 and 64 states, seeds 1-4, labels drawn as in
    `test_nested_pctl_on_sparse_labels`, through the library API at the
    interpreter's default recursion limit. The qualitative operators are
    decided as state sets, at the root or where the walk reaches them; on
    the term route alone a sparse `E [P1 U P2]` at 32 states unfolds along
    the model's simple paths for tens of seconds."""
    until = pctl.Until(pctl.Prop("P1"), pctl.Prop("P2"))
    formulas = [
        pctl.Exists(until),
        pctl.Forall(until),
        pctl.Exists(pctl.Until(pctl.Prop("P1"), pctl.Forall(until))),
        pctl.ProbForall(False, F(1, 2), pctl.Until(pctl.Prop("P1"), pctl.Exists(until))),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter default; conftest raises it
    try:
        with criterion("qualitative until on sparse labels", 10.0):
            for n in (32, 64):
                for seed in (1, 2, 3, 4):
                    rng = random.Random(seed)
                    m = rand_model_exact(rng, n)
                    interp = Interpretation({
                        "P1": {s: F(rng.random() < 0.75) for s in m.states},
                        "P2": {s: F(rng.random() < 0.15) for s in m.states},
                    })
                    for phi in formulas:
                        pipeline = model_check_pctl(phi, m, interp).values
                        verdict = pctl_oracle(phi, m, interp)
                        for s in m.states:
                            assert pipeline[s] == (F(1) if verdict[s] else F(0)), (n, seed, s)
    finally:
        sys.setrecursionlimit(limit)


def test_fixed_point_free_translation_matches_direct_semantics():
    rng = random.Random(4242)
    with criterion("fixed-point-free translation", 60.0):
        for _ in range(100):
            m = rand_model(rng, max_states=3, max_dists=2)
            interp = rand_interp(rng, m)
            phi = rand_lmu(rng, depth=rng.randint(0, 3), fixed_point_free=True)
            expected = direct_value(phi, m, interp)
            for s in m.states:
                t = translate_all(phi, m, interp, (s,))[s]
                assert eval_term(t, {}).value == expected[s]


def property_suite_corpus():
    """The randomized term corpus shared by the evaluator-property and
    Kleene-bracketing criteria; the fixed seed makes the two runs identical."""
    rng = random.Random(9001)
    for case in range(500):
        n_free = rng.randint(0, 3)
        free = tuple(f"x{i}" for i in range(n_free))
        t = rand_binder_term(rng, depth=rng.randint(1, 3), free_vars=free)
        point = rand_point(rng, list(t.free))
        yield case, t, point, random.Random(9001 * 1000 + case)


def test_evaluator_property_suite():
    with criterion("evaluator property suite", 300.0):
        for case, t, point, rng in property_suite_corpus():
            result = eval_term(t, point)
            value = result.value
            assert 0 <= value <= 1

            # (P1): the conditions accept the evaluation point
            coords = [point[n] for n in result.variables]
            assert cond_holds(result.conditions, coords), case

            # (P2): on sampled satisfying points the expression equals the term
            for sample in satisfying_samples(rng, result, point, want=10):
                expected = eval_term(t, sample).value
                got = result.expr.evaluate([sample[n] for n in result.variables])
                assert got == expected, case

            # fixed-point residual: the value solves x = body(r, x)
            assert eval_term(t.body, {**point, t.var: value}).value == value, case

            # strictness witnesses on the approach side of the fixed point
            is_mu = isinstance(t, lmu.Mu)
            for _ in range(5):
                lam = F(rng.randint(1, 15), 16)
                if is_mu and value > 0:
                    w = value * lam
                    assert eval_term(t.body, {**point, t.var: w}).value > w, case
                elif not is_mu and value < 1:
                    w = value + (1 - value) * lam
                    assert eval_term(t.body, {**point, t.var: w}).value < w, case

            # monotonicity in the input point
            bumped = {n: v + (1 - v) * F(rng.randint(0, 4), 4) for n, v in point.items()}
            assert eval_term(t, bumped).value >= value, case


def test_kleene_bracketing_on_property_suite():
    with criterion("Kleene bracketing on the property suite", 300.0):
        for case, t, point, _ in property_suite_corpus():
            value = eval_term(t, point).value
            outcome = kleene_term(t, point, budget=10_000, fuel=50_000)
            if outcome.stabilized:
                assert outcome.value == value, case
            if outcome.lower_sound:
                assert outcome.value <= value, case
            if outcome.upper_sound:
                assert outcome.value >= value, case


def test_dual_law():
    rng = random.Random(777)
    with criterion("dual law", 120.0):
        for case in range(100):
            m = rand_model(rng, max_states=3, max_dists=2)
            interp = rand_interp(rng, m)
            phi = rand_lmu(rng, depth=rng.randint(0, 3))
            plain = model_check_lmu(phi, m, interp).values
            flipped = model_check_lmu(lmu.dual(phi), m, interp).values
            for s in m.states:
                assert flipped[s] == 1 - plain[s], (case, s)


def test_rationality_and_determinism(capsys, tmp_path):
    with criterion("rationality and determinism", 60.0):
        rng = random.Random(31337)
        for _ in range(10):
            m = rand_model(rng, max_states=3, max_dists=2)
            interp = rand_bool_interp(rng, m)
            phi = rand_pctl(rng, depth=2)
            first = model_check_pctl(phi, m, interp)
            second = model_check_pctl(phi, m, interp)
            assert first.values == second.values
            assert first.iterations == second.iterations
            assert all(isinstance(v, Fraction) for v in first.values.values())

        model_path = tmp_path / "coin.pnts"
        model_path.write_text(
            "state s0 s1\nprop P = { s0: 0, s1: 1 }\ntrans s0 -> { s0: 1/2, s1: 1/2 }\n"
        )
        argv = [
            "check", "--model", str(model_path),
            "--pctl", "Pmax>=1/2 [ true U P ]", "--json", "--cross-check",
        ]
        assert cli_main(list(argv)) == 0
        first_out = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second_out = capsys.readouterr().out
        assert first_out == second_out
        doc = json.loads(first_out)
        for row in doc["results"]:
            assert row["den"] != "0" and int(row["den"]) > 0

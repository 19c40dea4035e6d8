import json
import random
from fractions import Fraction
from pathlib import Path

from generators import rand_bool_interp, rand_model, rand_pctl
from lmucheck import lmu, pctl
from lmucheck.checking import model_check_pctl
from lmucheck.encoder import encode_pctl
from lmucheck.parser import parse_pctl

F = Fraction


def is_constant_like(phi: lmu.Lmu) -> bool:
    """Model-independent subtree built from scalars, sums and 0/1 constants."""
    if isinstance(phi, lmu.Const):
        return True
    if isinstance(phi, lmu.Scalar):
        return is_constant_like(phi.body)
    if isinstance(phi, (lmu.Join, lmu.Meet, lmu.OPlus, lmu.OTimes)):
        return is_constant_like(phi.left) and is_constant_like(phi.right)
    return False


def check_threshold_shape(phi: lmu.Lmu) -> None:
    """Sums, products and scalars appear only inside threshold skeletons:
    the loop body of `mu X.(X (+) _)` / `nu X.(X (.) _)`, a composition with
    a constant operand, or a fully constant subtree."""
    if isinstance(phi, (lmu.Mu, lmu.Nu)):
        body = phi.body
        if isinstance(body, (lmu.OPlus, lmu.OTimes)) and body.left == lmu.Var(phi.var):
            check_threshold_shape(body.right)
            return
        check_threshold_shape(body)
        return
    if isinstance(phi, (lmu.OPlus, lmu.OTimes)):
        if is_constant_like(phi):
            return
        if is_constant_like(phi.right):
            check_threshold_shape(phi.left)
            return
        if is_constant_like(phi.left):
            check_threshold_shape(phi.right)
            return
        raise AssertionError(f"sum/product outside a threshold skeleton: {phi}")
    if isinstance(phi, lmu.Scalar):
        assert is_constant_like(phi), f"scalar outside a threshold skeleton: {phi}"
        return
    if isinstance(phi, (lmu.Join, lmu.Meet)):
        check_threshold_shape(phi.left)
        check_threshold_shape(phi.right)
        return
    if isinstance(phi, (lmu.Diamond, lmu.Box)):
        check_threshold_shape(phi.body)
        return
    assert isinstance(phi, (lmu.Var, lmu.Prop, lmu.CoProp, lmu.Const)), f"unexpected node {phi}"


def test_encode_true_is_one():
    assert encode_pctl(pctl.TRUE) == lmu.ONE


def test_encode_prop_and_or():
    phi = encode_pctl(parse_pctl("P1 | P2"))
    assert phi == lmu.Join(lmu.Prop("P1"), lmu.Prop("P2"))


def test_encode_not_true_is_zero():
    assert encode_pctl(parse_pctl("!true")) == lmu.ZERO


def test_encode_exists_next():
    phi = encode_pctl(parse_pctl("E X P"))
    assert phi == lmu.expand_threshold(True, F(0), lmu.Diamond(lmu.Prop("P")))


def test_encode_forall_next_uses_totalized_box():
    phi = encode_pctl(parse_pctl("A X P"))
    assert isinstance(phi, lmu.Nu)  # the =1 threshold
    body = phi.body
    assert isinstance(body, lmu.OTimes)
    assert body.right == lmu.Meet(lmu.Box(lmu.Prop("P")), lmu.Diamond(lmu.ONE))


def test_encode_prob_until():
    phi = encode_pctl(parse_pctl("Pmax>=1/2 [ P1 U P2 ]"))
    # nu T. (T (.) (mu X. (P2 \/ (P1 /\ <>X)) (+) 1/2*1))
    assert isinstance(phi, lmu.Nu)
    assert isinstance(phi.body, lmu.OTimes)
    inner = phi.body.right
    assert isinstance(inner, lmu.OPlus)
    assert inner.right == lmu.constant(F(1, 2))
    loop = inner.left
    assert isinstance(loop, lmu.Mu)
    assert loop.body == lmu.Join(
        lmu.Prop("P2"), lmu.Meet(lmu.Prop("P1"), lmu.Diamond(lmu.Var(loop.var)))
    )


def test_encode_exists_until_loop():
    phi = encode_pctl(parse_pctl("E[ P1 U P2 ]"))
    assert isinstance(phi, lmu.Mu)
    body = phi.body
    assert isinstance(body, lmu.Join) and body.left == lmu.Prop("P2")
    assert isinstance(body.right, lmu.Meet) and body.right.left == lmu.Prop("P1")
    step = body.right.right  # P_>0(<>X)
    assert isinstance(step, lmu.Mu)
    assert step.body == lmu.OPlus(lmu.Var(step.var), lmu.Diamond(lmu.Var(phi.var)))


def test_encode_forall_until_loop():
    phi = encode_pctl(parse_pctl("A[ P1 U P2 ]"))
    assert isinstance(phi, lmu.Mu)
    step = phi.body.right.right  # P_=1(boxdot X)
    assert isinstance(step, lmu.Nu)
    assert step.body == lmu.OTimes(
        lmu.Var(step.var),
        lmu.Meet(lmu.Box(lmu.Var(phi.var)), lmu.Diamond(lmu.ONE)),
    )


def test_encode_prob_next_cases():
    diamond = encode_pctl(parse_pctl("Pmax>1/3 [ X P ]"))
    assert isinstance(diamond, lmu.Mu)  # the >q macro
    inner = diamond.body.right
    assert inner == lmu.OTimes(lmu.Diamond(lmu.Prop("P")), lmu.constant(F(2, 3)))
    box = encode_pctl(parse_pctl("Pmin>=1 [ X P ]"))
    assert isinstance(box, lmu.Nu)
    assert box.body.right == lmu.Meet(lmu.Box(lmu.Prop("P")), lmu.Diamond(lmu.ONE))


def test_encode_forall_prob_until():
    phi = encode_pctl(parse_pctl("Pmin>=1/2 [ P1 U P2 ]"))
    assert isinstance(phi, lmu.Nu)
    loop = phi.body.right.left
    assert isinstance(loop, lmu.Mu)
    assert loop.body == lmu.Join(
        lmu.Prop("P2"),
        lmu.Meet(
            lmu.Prop("P1"),
            lmu.Meet(lmu.Box(lmu.Var(loop.var)), lmu.Diamond(lmu.ONE)),
        ),
    )


def test_boundary_thresholds_collapse_to_constants():
    assert encode_pctl(parse_pctl("Pmax>=0 [ P U P ]")) == lmu.ONE
    assert encode_pctl(parse_pctl("Pmin>=0 [ X P ]")) == lmu.ONE
    assert encode_pctl(parse_pctl("Pmax>1 [ P U P ]")) == lmu.ZERO
    geq_one = encode_pctl(parse_pctl("Pmax>=1 [ X P ]"))
    assert isinstance(geq_one, lmu.Nu)  # routed to the =1 macro


def test_encoded_formulas_are_closed():
    rng = random.Random(79)
    for _ in range(100):
        phi = encode_pctl(rand_pctl(rng, depth=rng.randint(0, 3)))
        assert phi.free == ()


def test_encoded_shape_confines_strong_connectives():
    rng = random.Random(83)
    for _ in range(150):
        phi = encode_pctl(rand_pctl(rng, depth=rng.randint(0, 3)))
        check_threshold_shape(phi)


def test_dual_is_an_involution_on_encodings():
    # `dual` maps the constant `q*1` to `(1-q)*1`, so twice gives the node back
    golden = json.loads(Path(__file__).with_name("golden_cli_outputs.json").read_text(encoding="utf-8"))
    rng = random.Random(97)
    corpus = [parse_pctl(case["argv"][2]) for case in golden if case["argv"][0] == "encode"]
    corpus += [rand_pctl(rng, depth=rng.randint(0, 3)) for _ in range(150)]
    for phi in corpus:
        e = encode_pctl(phi)
        assert lmu.dual(lmu.dual(e)) is e, pctl.render_pctl(phi)


def test_conjunction_of_bounds_encodes_to_meet():
    # `a & b` parses as `!(!a | !b)`; its encoding is the meet of the two
    rng = random.Random(101)

    def bounded() -> pctl.PctlState:
        while True:
            phi = rand_pctl(rng, depth=rng.randint(1, 3))
            if isinstance(phi, (pctl.ProbExists, pctl.ProbForall)):
                return phi

    for _ in range(100):
        a, b = pctl.render_pctl(bounded()), pctl.render_pctl(bounded())
        meet = lmu.Meet(encode_pctl(parse_pctl(a)), encode_pctl(parse_pctl(b)))
        assert encode_pctl(parse_pctl(f"{a} & {b}")) is meet, (a, b)


def test_encoded_values_are_boolean_on_boolean_models():
    rng = random.Random(89)
    for _ in range(25):
        m = rand_model(rng, max_states=3, max_dists=2)
        interp = rand_bool_interp(rng, m)
        phi = rand_pctl(rng, depth=2)
        out = model_check_pctl(phi, m, interp)
        assert all(v in (F(0), F(1)) for v in out.values.values())

"""The four workloads: seeded operations, how to run one, how to check it.

A workload is a fixed list of operations built from the seed. A `check`
operation runs `lmucheck check ... --json` through `lmucheck.cli.main` in
this process and is checked on the values it prints; an `eval` operation
parses a term and calls `eval_term` with a fresh evaluator, and is checked on
the conditioned linear expression it returns.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import lmucheck.cli
from lmucheck import lmu, pctl, terms
from lmucheck.evaluator import eval_term
from lmucheck.parser import parse_term

import checks
import gen

WORKLOADS = ("pctl-ladder", "lmu-alternation", "wide-shallow", "term-eval")

# pctl-ladder: the four families over a state ladder, plus nested formulas
# (family, models per ladder rung); `Pmin>q [X P1]` costs about the same at
# every rung, so it runs less often and the median operation stays inside the
# group of 3-state until formulas rather than between two groups
PCTL_FAMILIES = (("EU", 22), ("AU", 22), ("PmaxU", 22), ("PminX", 11))
PCTL_LADDER = (2, 3, 4)
PCTL_NESTED = ((2, 3, 40), (3, 2, 10))  # (states, nesting depth, formulas)
PCTL_SUPPORT = 2  # successors per distribution, at most

# lmu-alternation: ((alternation depth, states, distributions per state, body
# depth), formula pairs) rungs; each formula runs together with its dual
LMU_RUNGS = (
    ((1, 2, 2, 2), 30),
    ((1, 3, 2, 2), 45),
    ((2, 2, 2, 2), 45),
    ((3, 1, 1, 1), 20),
)
REACH_LADDER = ((2, 10), (3, 20))  # (states, formula pairs)

# wide-shallow: (states, next-step PCTL formulas, fixed-point-free formulas,
# formula depth) per wide model pair. The counts put the median operation in
# the middle of the 50-state PCTL group and the 90th percentile in the middle
# of the 200-state PCTL group, not on the edge between two groups.
WIDE_MODELS = ((50, 16, 12, 2), (100, 7, 10, 2), (200, 8, 5, 2), (1000, 0, 2, 1))

# term-eval: open terms with 3-4 free variables at seeded points
TERM_OPS = 1000
TERM_DEPTH = 4


@dataclass
class Op:
    """One operation. `check(output, outputs)` returns None or a reason;
    `outputs` holds the first-round output of every operation, by index."""

    family: str
    check: Callable
    argv: list[str] | None = None
    term: str | None = None
    point: dict[str, Fraction] = field(default_factory=dict)


def run_op(op: Op):
    """Run one operation; return its output (printed JSON or an EvalResult)."""
    if op.argv is not None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lmucheck.cli.main(list(op.argv))
        if code != 0:
            raise RuntimeError(f"exit code {code}")
        return buf.getvalue()
    return eval_term(parse_term(op.term), op.point)


def values_of(output: str) -> dict[str, Fraction]:
    doc = json.loads(output)
    return {r["state"]: Fraction(int(r["num"]), int(r["den"])) for r in doc["results"]}


def iterations_of(output) -> int:
    if isinstance(output, str):
        return json.loads(output)["iterations"]
    return output.iterations


def values_bits(output) -> int:
    """Largest numerator or denominator among the output values, in bits."""
    vals = values_of(output).values() if isinstance(output, str) else (output.value,)
    return max(max(v.numerator.bit_length(), v.denominator.bit_length()) for v in vals)


class _Builder:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []
        self.files = 0

    def model_file(self, m: gen.Model) -> str:
        self.files += 1
        path = self.workdir / f"m{self.files}.pnts"
        path.write_text(m.text(), encoding="utf-8")
        return str(path)

    def pctl(self, family: str, m: gen.Model, path: str, phi: pctl.PctlState) -> None:
        pnts, interp = m.pnts()
        argv = ["check", "--model", path, "--pctl", pctl.render_pctl(phi), "--cross-check", "--json"]
        check = lambda out, _: checks.pctl_verdicts(phi, pnts, interp, values_of(out))
        self.ops.append(Op(family, check, argv=argv))

    def lmu(self, family: str, m: gen.Model, path: str, phi: lmu.Lmu, reference) -> None:
        pnts, interp = m.pnts()
        argv = ["check", "--model", path, "--lmu", lmu.render_lmu(phi), "--json"]
        check = lambda out, _: reference(phi, pnts, interp, values_of(out))
        self.ops.append(Op(family, check, argv=argv))

    def lmu_with_dual(self, family: str, m: gen.Model, path: str, phi: lmu.Lmu, reference) -> None:
        """phi and then its dual, each checked by `reference` and by the dual
        law against the other's output."""
        pnts, interp = m.pnts()
        first = len(self.ops)
        for offset, (name, formula) in enumerate(((family, phi), (family + "-dual", lmu.dual(phi)))):
            argv = ["check", "--model", path, "--lmu", lmu.render_lmu(formula), "--json"]

            def check(out, outputs, formula=formula, partner=first + 1 - offset):
                return reference(formula, pnts, interp, values_of(out)) or checks.dual_law(
                    values_of(outputs[partner]), values_of(out)
                )

            self.ops.append(Op(name, check, argv=argv))


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{workload}/{seed}")
    b = _Builder(workdir)
    if workload == "pctl-ladder":
        for n in PCTL_LADDER:
            for family, replicas in PCTL_FAMILIES:
                for _ in range(replicas):
                    m = gen.model(rng, n, 2, boolean=True, max_support=PCTL_SUPPORT)
                    b.pctl(f"{family}-n{n}", m, b.model_file(m), gen.pctl_family(family, rng))
        for n, depth, replicas in PCTL_NESTED:
            for _ in range(replicas):
                m = gen.model(rng, n, 2, boolean=True, max_support=PCTL_SUPPORT)
                b.pctl(f"nested-n{n}", m, b.model_file(m), gen.pctl_nested(rng, depth))
    elif workload == "lmu-alternation":
        for (alternation, n, dists, body_depth), replicas in LMU_RUNGS:
            for _ in range(replicas):
                m = gen.model(rng, n, dists, boolean=False)
                phi = gen.lmu_chain(rng, alternation, body_depth)
                b.lmu_with_dual(f"alt{alternation}-n{n}", m, b.model_file(m), phi, checks.chain)
        for n, replicas in REACH_LADDER:
            for _ in range(replicas):
                m = gen.model(rng, n, 2, boolean=True)
                path = b.model_file(m)
                b.lmu(f"reach-n{n}", m, path, gen.lmu_reach(),
                      lambda phi, p, i, v: checks.max_reach(p, i, v, complemented=False))
                b.lmu(f"reach-n{n}-dual", m, path, lmu.dual(gen.lmu_reach()),
                      lambda phi, p, i, v: checks.max_reach(p, i, v, complemented=True))
    elif workload == "wide-shallow":
        for n, pctl_ops, lmu_ops, depth in WIDE_MODELS:
            m = gen.model(rng, n, 2, boolean=True)
            path = b.model_file(m)
            for j in range(pctl_ops):
                # cycle through the 16 two-level shapes, outer and inner both varying
                shape = (j % 4, (j + j // 4) % 4)[:depth]
                b.pctl(f"pctl-n{n}", m, path, gen.pctl_next(rng, shape))
            m = gen.model(rng, n, 2, boolean=False)
            path = b.model_file(m)
            for _ in range(lmu_ops):
                phi = gen.lmu_shallow(rng, depth)
                b.lmu(f"lmu-n{n}", m, path, phi, checks.fixed_point_free)
    elif workload == "term-eval":
        for i in range(TERM_OPS):
            n_free = 3 + i % 2
            t = gen.binder_term(rng, n_free, TERM_DEPTH)
            point = gen.point(rng, [f"x{j}" for j in range(n_free)])
            check_seed = rng.randrange(2**32)
            check = (lambda t, point, s: lambda out, _: checks.conditioned(t, point, out, s))(
                t, point, check_seed
            )
            b.ops.append(Op(f"free{n_free}", check, term=terms.render_term(t), point=point))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return b.ops

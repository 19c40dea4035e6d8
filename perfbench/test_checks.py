"""Self-test of the benchmark: correct outputs pass their reference checks,
corrupted outputs are caught, and an operation over the time cap is counted
as failed.

    python3 -m pytest perfbench/test_checks.py    # or: python3 perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))

import run  # noqa: E402
import workloads  # noqa: E402


def _corrupt_json(output: str) -> str:
    """Change the first printed value: 0 and 1 swap, others halve."""
    doc = json.loads(output)
    row = doc["results"][0]
    v = Fraction(int(row["num"]), int(row["den"]))
    w = 1 - v if v in (0, 1) else v / 2
    row["num"], row["den"] = str(w.numerator), str(w.denominator)
    return json.dumps(doc)


def _sample_ops(workload: str, tmp_path: Path):
    """The first operation of each family on the smallest rungs, and all
    operations of the workload."""
    ops = workloads.build(workload, 7, tmp_path)
    picked, seen = [], set()
    for i, op in enumerate(ops):
        small = op.family.endswith(("n1", "n1-dual", "n2", "n2-dual", "n50", "free3", "free4"))
        if small and op.family not in seen:
            seen.add(op.family)
            picked.append((i, op))
    return picked, ops


def _outputs(ops, picked):
    """First-round outputs of the picked operations and of their partners
    (a chain and its dual check each other)."""
    outputs = [None] * len(ops)
    for i, op in picked:
        partner = i - 1 if op.family.endswith("-dual") else i + 1
        for j in (i, partner) if op.family.startswith("alt") else (i,):
            outputs[j] = workloads.run_op(ops[j])
    return outputs


def _assert_caught(workload: str, tmp_path: Path) -> None:
    picked, ops = _sample_ops(workload, tmp_path)
    assert picked
    outputs = _outputs(ops, picked)
    for i, op in picked:
        assert op.check(outputs[i], outputs) is None, (op.family, op.check(outputs[i], outputs))
        good = outputs[i]
        if isinstance(good, str):
            outputs[i] = _corrupt_json(good)
        else:
            outputs[i] = dataclasses.replace(good, value=good.value / 2 if good.value else Fraction(1, 2))
        assert op.check(outputs[i], outputs) is not None, f"corrupted {op.family} output passed"
        outputs[i] = good


def test_pctl_ladder_corruption_caught(tmp_path):
    _assert_caught("pctl-ladder", tmp_path)


def test_lmu_alternation_corruption_caught(tmp_path):
    _assert_caught("lmu-alternation", tmp_path)


def test_wide_shallow_corruption_caught(tmp_path):
    _assert_caught("wide-shallow", tmp_path)


def test_term_eval_corruption_caught(tmp_path):
    _assert_caught("term-eval", tmp_path)


def test_term_eval_corrupted_expression_caught(tmp_path):
    picked, ops = _sample_ops("term-eval", tmp_path)
    i, op = picked[0]
    good = workloads.run_op(op)
    expr = dataclasses.replace(good.expr, const=good.expr.const + Fraction(1, 64))
    assert op.check(dataclasses.replace(good, expr=expr), [None] * len(ops)) is not None


def test_timeout_is_a_failed_operation():
    slow = SimpleNamespace(run_op=lambda op: time.sleep(1), iterations_of=None, values_bits=None)
    ops = [workloads.Op("slow", check=lambda out, outputs: None)]
    args = SimpleNamespace(workload="slow", seed=0, seconds=0, trace=0)
    cap, run.OP_CAP_SECONDS = run.OP_CAP_SECONDS, 0.001
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            run.measure(args, slow, ops, setup_s=0.0)
    finally:
        run.OP_CAP_SECONDS = cap
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["attempted"] == run.MIN_SAMPLES
    assert result["failed"] == run.MIN_SAMPLES
    assert result["correct"] is True
    assert "timeout" in err.getvalue()


if __name__ == "__main__":
    import tempfile

    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                args = (Path(tmp),) if test.__code__.co_argcount else ()
                test(*args)
            print(f"ok {name}")

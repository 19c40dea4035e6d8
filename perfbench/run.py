"""Benchmark for lmucheck: one workload per process, end-to-end metrics or,
with `--trace 1`, per-layer metrics.

    python3 perfbench/run.py --workload pctl-ladder --seed 1 --seconds 20 --trace 0

The run sets up (imports lmucheck, generates the seeded inputs, writes the
model files) several times and reports the median as `setup_s`. It then runs
whole rounds of the workload's operations, one at a time in this process,
until `--seconds` have passed. Every operation of the first round is checked
against an independent reference, and every later round must repeat the
first round's outputs exactly. The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
OWN_MODULES = ("gen", "checks", "workloads", "spans")
SETUP_REPEATS = 5
OP_CAP_SECONDS = 10.0  # wall-clock cap per operation; the slowest runs about 1.2 s
MIN_SAMPLES = 100  # timed operations per run, at least


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def setup(workload: str, seed: int, workdir: Path):
    """Import lmucheck and the benchmark afresh, build the operations and
    write the model files."""
    for name in list(sys.modules):
        if name == "lmucheck" or name.startswith("lmucheck.") or name in OWN_MODULES:
            del sys.modules[name]
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workloads = importlib.import_module("workloads")
    return workloads, workloads.build(workload, seed, workdir)


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lmucheck" / "__init__.py").is_file():
        print(f"error: no lmucheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workloads, ops = setup(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - start)
        import lmucheck
        if not lmucheck.__file__.startswith(str(SRC)):
            print(f"error: imported lmucheck from {lmucheck.__file__}", file=sys.stderr)
            return 2
        return measure(args, workloads, ops, statistics.median(setups))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, ops, setup_s: float) -> int:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, workloads)
    signal.signal(signal.SIGALRM, _alarm)
    first: list = [None] * len(ops)
    ok_attempts = [0] * len(ops)
    failures: dict[tuple[int, str], int] = {}  # (op index, reason) -> failed attempts
    op_times: list[float] = []
    round_times: list[float] = []
    began = time.perf_counter()
    while len(op_times) < MIN_SAMPLES or time.perf_counter() - began < args.seconds:
        rnd = len(round_times)
        round_time = 0.0
        for i, op in enumerate(ops):
            if tracer:
                tracer.op, tracer.round = i, rnd
            reason = None
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_SECONDS)
            try:
                output = workloads.run_op(op)
            except OpTimeout:
                reason = "timeout"
            except Exception as exc:  # noqa: BLE001 - any program error fails the operation
                reason = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            op_times.append(elapsed)
            round_time += elapsed
            if reason is None and first[i] is None:
                first[i] = output
                if tracer:
                    tracer.add("evaluator.loop_iterations", workloads.iterations_of(output))
                    tracer.high("evaluator.value_bits_max", workloads.values_bits(output))
            elif reason is None and output != first[i]:
                reason = "output differs from an earlier round"
            if reason is None:
                ok_attempts[i] += 1
            else:
                failures[i, reason] = failures.get((i, reason), 0) + 1
        round_times.append(round_time)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    wrong = 0
    for i, op in enumerate(ops):
        if first[i] is None:
            continue
        try:
            problem = op.check(first[i], first)
        except Exception as exc:  # noqa: BLE001 - a crashing reference is a failed check
            problem = f"reference raised {type(exc).__name__}: {exc}"
        if problem:
            wrong += 1
            failures[i, f"wrong output: {problem}"] = ok_attempts[i]
    attempted: dict[str, int] = {}
    failed: dict[str, int] = {}
    for op in ops:
        attempted[op.family] = attempted.get(op.family, 0) + len(round_times)
    for (i, reason), count in failures.items():
        failed[ops[i].family] = failed.get(ops[i].family, 0) + count
        print(f"FAILED {args.workload} op {i} ({ops[i].family}) x{count}: {reason}", file=sys.stderr)

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
        "operations": len(ops),
        "rounds": len(round_times),
        "attempted": attempted,
        "failed": failed,
    }
    print(json.dumps(header))
    total_s = statistics.median(round_times)
    if tracer:
        metrics = tracer.metrics()
        metrics["trace.total_s"] = total_s
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        units = {m: ("s" if m.endswith("_s") else spans.UNITS.get(m, "count")) for m in metrics}
    else:
        metrics = {
            "setup_s": setup_s,
            "total_s": total_s,
            "op_ms.p50": 1000 * statistics.median(op_times),
            "op_ms.p90": 1000 * statistics.quantiles(op_times, n=10)[-1],
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "total_s": "s", "op_ms.p50": "ms", "op_ms.p90": "ms",
                 "peak_rss_mb": "MB"}
    result = {
        "correct": wrong == 0,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans and counters for the traced run, recorded from the benchmark's side.

`install` replaces the public functions that one layer calls in the next
with wrappers that record a span (name, start, end, parent, operation,
round) and, for some, a counter. Nothing is wrapped in an untraced run.
Spans stay in memory and are written as JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# span name -> per-layer time metric
TIME_METRICS = {
    "model.parse_model": "model.parse_s",
    "parser.parse_pctl": "parser.parse_s",
    "parser.parse_lmu": "parser.parse_s",
    "parser.parse_term": "parser.parse_s",
    "encoder.encode_pctl": "encoder.encode_s",
    "lmu.normalize_binders": "lmu.normalize_s",
    "translator.translate_all": "translator.translate_s",
    "evaluator.TermEvaluator.value": "evaluator.eval_s",
    "evaluator.eval_term": "evaluator.eval_s",
    "oracle.pctl_oracle": "oracle.check_s",
}
SUM_COUNTERS = (
    "model.bytes",
    "encoder.formula_size",
    "translator.dag_nodes",
    "translator.binder_nodes",
    "evaluator.loop_iterations",
)
MAX_COUNTERS = ("evaluator.conditions_max", "evaluator.value_bits_max")
UNITS = {"model.bytes": "bytes", "evaluator.value_bits_max": "bits"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = -1
        self.round = -1
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))

    def start(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "op": self.op, "round": self.round}
        )
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._open.pop()

    def add(self, counter: str, amount: int) -> None:
        self.counts[self.round][counter] += amount

    def high(self, counter: str, value: int) -> None:
        per_round = self.counts[self.round]
        per_round[counter] = max(per_round[counter], value)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span named `name`
        and then calls `after(result, *args)` outside the span."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            span = self.start(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(result, *args)
            return result

        setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: time metrics are summed per round and the
        median over rounds reported; counters are per round (identical in
        every round, since rounds repeat the same operations)."""
        rounds = sorted({s["round"] for s in self.spans})
        per_round = {r: defaultdict(float) for r in rounds}
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            duration = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += duration
            if s["name"] in TIME_METRICS:
                per_round[s["round"]][TIME_METRICS[s["name"]]] += duration
        for s in self.spans:
            if s["name"] == "cli.main":
                self_time = s["end"] - s["start"] - child_time[s["id"]]
                per_round[s["round"]]["cli.self_s"] += self_time
        out: dict[str, float] = {}
        for metric in sorted({*TIME_METRICS.values(), "cli.self_s"}):
            out[metric] = statistics.median(per_round[r][metric] for r in rounds)
        first = self.counts[rounds[0]] if rounds else {}
        for counter in SUM_COUNTERS + MAX_COUNTERS:
            out[counter] = first.get(counter, 0)
        return out


def _formula_size(phi) -> int:
    size, stack = 0, [phi]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(getattr(node, a) for a in ("body", "left", "right") if hasattr(node, a))
    return size


def _count_dag(tracer: Tracer, per_state, *args) -> None:
    """Distinct term nodes, and binder nodes among them, reachable from the
    per-state roots."""
    from lmucheck import terms

    seen: set[int] = set()
    stack = list(per_state.values())
    binders = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, (terms.TMu, terms.TNu)):
            binders += 1
        stack.extend(getattr(node, a) for a in ("body", "left", "right") if hasattr(node, a))
    tracer.add("translator.dag_nodes", len(seen))
    tracer.add("translator.binder_nodes", binders)


def install(tracer: Tracer, workloads_module) -> None:
    """Wrap each call into a layer's public function."""
    import lmucheck.checking as checking
    import lmucheck.cli as cli
    import lmucheck.evaluator as evaluator
    import lmucheck.lmu as lmu

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "parse_model", "model.parse_model",
                lambda res, text: tracer.add("model.bytes", len(text.encode("utf-8"))))
    tracer.wrap(cli, "parse_pctl", "parser.parse_pctl")
    tracer.wrap(cli, "parse_lmu", "parser.parse_lmu")
    tracer.wrap(cli, "pctl_oracle", "oracle.pctl_oracle")
    tracer.wrap(checking, "encode_pctl", "encoder.encode_pctl",
                lambda res, *a: tracer.add("encoder.formula_size", _formula_size(res)))
    tracer.wrap(lmu, "normalize_binders", "lmu.normalize_binders")
    tracer.wrap(checking, "translate_all", "translator.translate_all",
                functools.partial(_count_dag, tracer))
    tracer.wrap(evaluator.TermEvaluator, "value", "evaluator.TermEvaluator.value")
    tracer.wrap(workloads_module, "parse_term", "parser.parse_term")
    tracer.wrap(workloads_module, "eval_term", "evaluator.eval_term",
                lambda res, *a: tracer.high("evaluator.conditions_max", len(res.conditions)))

"""Finite rational probabilistic nondeterministic transition systems.

Model file grammar (line oriented, `#` starts a comment):

    state <id> <id> ...                       # declaration order is canonical
    prop <Id> = { <state>: <rational>, ... }  # omitted states default to 0
    trans <state> -> { <state>: <rational>, ... }

State names start with a lowercase letter, proposition names with an uppercase
letter. Every `trans` line contributes one probability distribution; a state
with no `trans` line is a deadlock. Models are immutable after parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .rationals import RationalParseError, format_rational, parse_rational

__all__ = [
    "ModelError",
    "Distribution",
    "Pnts",
    "Interpretation",
    "parse_model",
    "render_model",
    "validate_model",
]


_ZERO = Fraction(0)


class ModelError(ValueError):
    """Malformed model text or violated model invariant."""


@dataclass(frozen=True)
class Distribution:
    """Probability distribution over states, zero-weight entries omitted."""

    entries: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def from_dict(weights: dict[str, Fraction], order: dict[str, int]) -> "Distribution":
        items = sorted(weights.items(), key=lambda kv: order.get(kv[0], len(order)))
        return Distribution(tuple(items))

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(s for s, _ in self.entries)

    @property
    def total(self) -> Fraction:
        return sum((w for _, w in self.entries), _ZERO)


@dataclass
class Pnts:
    """States in declaration order plus, per state, a sequence of distributions."""

    states: tuple[str, ...]
    transitions: dict[str, tuple[Distribution, ...]]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = {s: i for i, s in enumerate(self.states)}

    def distributions(self, state: str) -> tuple[Distribution, ...]:
        return self.transitions.get(state, ())


@dataclass
class Interpretation:
    """Proposition valuations in [0,1]; complements are derived, never stored."""

    valuation: dict[str, dict[str, Fraction]]

    def value(self, prop: str, state: str) -> Fraction:
        """The label of prop at state; 0 where the valuation has none."""
        per_state = self.valuation.get(prop)
        return _ZERO if per_state is None else per_state.get(state, _ZERO)


def validate_model(m: Pnts, interp: Interpretation) -> list[str]:
    """Return every invariant violation; an empty list means the model is valid.
    `parse_model` checks the same invariants as it reads; this is for hand-built models."""
    errors: list[str] = []
    declared = set(m.states)
    if len(declared) != len(m.states):
        errors.append("duplicate state declaration")
    for s, dists in m.transitions.items():
        if s not in declared:
            errors.append(f"transition from undeclared state {s}")
        for d in dists:
            for t, w in d.entries:
                if t not in declared:
                    errors.append(f"transition target {t} is not a declared state")
                if isinstance(w, float):
                    errors.append(f"weight {w!r} for {t} is a float, not an exact rational")
                elif w == 0:
                    errors.append(f"zero weight for {t} must be omitted")
                elif not (0 < w <= 1):
                    errors.append(f"weight {format_rational(w)} for {t} outside (0, 1]")
            if d.total != 1:
                errors.append(
                    f"distribution at {s} sums to {format_rational(Fraction(d.total))}, expected 1"
                )
    for p, per_state in interp.valuation.items():
        for s, v in per_state.items():
            if s not in declared:
                errors.append(f"valuation of {p} mentions undeclared state {s}")
            if isinstance(v, float):
                errors.append(f"valuation {p}({s}) = {v!r} is a float, not an exact rational")
            elif not (0 <= v <= 1):
                errors.append(f"valuation {p}({s}) = {format_rational(v)} outside [0, 1]")
    return errors


_STATE_LINE = re.compile(r"^state\s+(.+)$")
_PROP_LINE = re.compile(r"^prop\s+([A-Z]\w*)\s*=\s*\{(.*)\}$")
_TRANS_LINE = re.compile(r"^trans\s+([a-z]\w*)\s*->\s*\{(.*)\}$")
_STATE_NAME = re.compile(r"^[a-z]\w*$")


def _parse_pairs(
    body: str, lineno: int, what: str, rationals: dict[str, Fraction]
) -> list[tuple[str, Fraction]]:
    """The `state: rational` pairs of a line; `rationals` maps each rational
    text already parsed to its value, and a text that fails is never in it."""
    pairs: list[tuple[str, Fraction]] = []
    body = body.strip()
    if not body:
        return pairs
    for chunk in body.split(","):
        if ":" not in chunk:
            raise ModelError(f"line {lineno}: expected `state: rational` in {what}")
        name, _, value = chunk.partition(":")
        q = rationals.get(value)
        if q is None:
            try:
                q = rationals[value] = parse_rational(value)
            except RationalParseError as exc:
                raise ModelError(f"line {lineno}: {exc}") from exc
        pairs.append((name.strip(), q))
    return pairs


def parse_model(text: str) -> tuple[Pnts, Interpretation]:
    """Parse a model file in one pass.

    Each line is checked as it is read against every invariant that
    `validate_model` checks, so a parsed model is valid; a violation raises
    ModelError with the line number.
    """
    order: dict[str, int] = {}  # declared states, in declaration order
    valuation: dict[str, dict[str, Fraction]] = {}
    trans: dict[str, list[Distribution]] = {}
    # rational text -> value, for this call only; the checks below run on
    # every use, with the using line's number
    rationals: dict[str, Fraction] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STATE_LINE.match(line)
        if m:
            for name in m.group(1).split():
                if not _STATE_NAME.match(name):
                    raise ModelError(
                        f"line {lineno}: state name {name!r} must start lowercase"
                    )
                if name in order:
                    raise ModelError(f"line {lineno}: duplicate state {name}")
                order[name] = len(order)
            continue
        m = _PROP_LINE.match(line)
        if m:
            prop, body = m.group(1), m.group(2)
            if prop in valuation:
                raise ModelError(f"line {lineno}: duplicate proposition {prop}")
            per_state: dict[str, Fraction] = {}
            for name, q in _parse_pairs(body, lineno, "prop", rationals):
                if name not in order:
                    raise ModelError(f"line {lineno}: unknown state {name}")
                if name in per_state:
                    raise ModelError(f"line {lineno}: repeated state {name}")
                if not (0 <= q.numerator <= q.denominator):
                    raise ModelError(
                        f"line {lineno}: valuation {format_rational(q)} outside [0, 1]"
                    )
                per_state[name] = q
            valuation[prop] = per_state
            continue
        m = _TRANS_LINE.match(line)
        if m:
            src, body = m.group(1), m.group(2)
            if src not in order:
                raise ModelError(f"line {lineno}: unknown state {src}")
            weights: dict[str, Fraction] = {}
            for name, q in _parse_pairs(body, lineno, "trans", rationals):
                if name not in order:
                    raise ModelError(f"line {lineno}: unknown state {name}")
                if name in weights:
                    raise ModelError(f"line {lineno}: repeated state {name}")
                if q.numerator == 0:
                    raise ModelError(f"line {lineno}: zero weight for {name} must be omitted")
                if not (0 < q.numerator <= q.denominator):
                    raise ModelError(
                        f"line {lineno}: weight {format_rational(q)} outside (0, 1]"
                    )
                weights[name] = q
            # the weights sum to 1 if their numerators over a common
            # denominator sum to it
            den = lcm(*(q.denominator for q in weights.values()))
            if sum(q.numerator * (den // q.denominator) for q in weights.values()) != den:
                total = sum(weights.values(), _ZERO)
                raise ModelError(
                    f"line {lineno}: distribution sums to {format_rational(total)}, expected 1"
                )
            dist = Distribution.from_dict(weights, order)
            bucket = trans.setdefault(src, [])
            if dist not in bucket:  # duplicate distributions carry no information
                bucket.append(dist)
            continue
        raise ModelError(f"line {lineno}: unrecognized line {line!r}")

    if not order:
        raise ModelError("model declares no states")
    pnts = Pnts(tuple(order), {s: tuple(ds) for s, ds in trans.items()})
    return pnts, Interpretation(valuation)


def render_model(m: Pnts, interp: Interpretation) -> str:
    """Canonical text form; parse_model(render_model(m, i)) reproduces (m, i)."""
    lines = ["state " + " ".join(m.states)]
    for p in sorted(interp.valuation):
        body = ", ".join(
            f"{s}: {format_rational(interp.valuation[p][s])}"
            for s in m.states
            if s in interp.valuation[p]
        )
        lines.append(f"prop {p} = {{ {body} }}")
    for s in m.states:
        for d in m.distributions(s):
            body = ", ".join(f"{t}: {format_rational(w)}" for t, w in d.entries)
            lines.append(f"trans {s} -> {{ {body} }}")
    return "\n".join(lines) + "\n"

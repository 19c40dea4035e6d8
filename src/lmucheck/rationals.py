"""Exact rational arithmetic: the only number type used by the checker.

Values are `fractions.Fraction`, which is arbitrary precision and always in
canonical form (gcd(|num|, den) = 1, den > 0). Floats never enter any core
computation; decimal rendering is an explicitly labelled approximation.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "RationalParseError",
    "parse_rational",
    "format_rational",
    "approx_decimal",
]

_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^[+-]?\d+/(\d+)$")
_DEC_RE = re.compile(r"^[+-]?\d+\.\d+$")


class RationalParseError(ValueError):
    """Raised for text that does not denote a rational."""


def parse_rational(text: str) -> Fraction:
    """Parse `int`, `int/int` (nonzero denominator) or a terminating decimal."""
    s = text.strip()
    if _INT_RE.match(s) or _DEC_RE.match(s):
        return Fraction(s)
    m = _FRAC_RE.match(s)
    if m:
        if int(m.group(1)) == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
        return Fraction(s)
    raise RationalParseError(f"malformed rational {text!r}")


def format_rational(q: Fraction) -> str:
    """Canonical rendering: `num/den`, or `num` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def approx_decimal(q: Fraction, digits: int = 6) -> str:
    """Decimal approximation for display only, never fed back into computation."""
    return f"{float(q):.{digits}g}"


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

# sign, integer digits, then optionally `/` and the denominator's digits or
# `.` and the fraction's digits
_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?")


class RationalParseError(ValueError):
    """Raised for text that does not denote a rational."""


def parse_rational(text: str) -> Fraction:
    """Parse `int`, `int/int` (nonzero denominator) or a terminating decimal."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise RationalParseError(f"malformed rational {text!r}")
    sign, digits, den_digits, decimals = m.groups()
    if decimals is not None:
        num, den = int(digits + decimals), 10 ** len(decimals)
    elif den_digits is not None:
        num, den = int(digits), int(den_digits)
        if den == 0:
            raise RationalParseError(f"zero denominator in {text!r}")
    else:
        num, den = int(digits), 1
    return Fraction(-num if sign == "-" else num, den)


def format_rational(q: Fraction) -> str:
    """Canonical rendering: `num/den`, or `num` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def approx_decimal(q: Fraction) -> str:
    """Decimal approximation to 6 significant digits, for display only, never fed back into computation."""
    return f"{float(q):.6g}"


from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmucheck.rationals import (
    RationalParseError,
    approx_decimal,
    format_rational,
    parse_rational,
)


def test_parse_fraction():
    assert parse_rational("1/2") == Fraction(1, 2)


def test_parse_decimal():
    assert parse_rational("0.25") == Fraction(1, 4)


def test_parse_canonicalizes():
    q = parse_rational("2/4")
    assert (q.numerator, q.denominator) == (1, 2)


def test_parse_integer_and_sign():
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+2") == Fraction(2)


@given(
    sign=st.sampled_from(["", "+", "-"]),
    digits=st.from_regex(r"[0-9]{1,6}", fullmatch=True),
    tail=st.one_of(
        st.just(""),
        st.from_regex(r"/0*[1-9][0-9]{0,5}", fullmatch=True),
        st.from_regex(r"\.[0-9]{1,6}", fullmatch=True),
    ),
)
def test_parse_agrees_with_fraction(sign, digits, tail):
    # signed, zero-padded, integer, fraction and decimal text
    text = sign + digits + tail
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "bad", ["", "1/0", "3/0", "3/000", "a", "1/", "/2", "1.", ".5", "1e3", "1 / 2", "3/-4"]
)
def test_parse_rejects(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_format():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_approx_is_text_only():
    assert approx_decimal(Fraction(1, 2)) == "0.5"


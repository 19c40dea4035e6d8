"""Tokenizers and recursive-descent parsers: one for fixed-point formulas and
terms, one for PCTL. Each grammar's tokenizer is one compiled pattern that
tries its symbols in list order, then rationals, then identifiers.

Terms are the modality-free, proposition-free fragment of the formulas, so
one parser reads both; the term parser overrides only what differs.
Formulas and terms share one token set:

    mu nu . <> [] \\/ /\\ (+) (.) ~ * ( ) rationals identifiers

Operator precedence, tightest first: scalar `q*`, the modalities of
`lmu.PREFIX`, then the infix connectives of `lmu.INFIX` from its end
(`(.)`, `(+)`, `/\\`, `\\/`), each left-associative; binder scope extends
maximally to the right. Bare `1` and `0` are the constant leaves `lmu.ONE`
and `lmu.ZERO`, not fixed points.
In formulas, an identifier bound by an enclosing binder is a variable and a
free uppercase identifier is a proposition; free lowercase identifiers are
rejected. In terms every identifier is a variable and must start with a
lowercase letter or `_` (optionally carrying an `@state` suffix, as
produced by the translation).

PCTL tokens: `true false ! | & E A X U Pmax Pmin > >= [ ] ( )`. `E X p`,
`A X p`, `E[p U q]`, `A[p U q]`, `Pmax>q[...]`, `Pmax>=q[...]`, `Pmin...`.
The names E, A, X, U, Pmax, Pmin, true, false act as keywords and are not
usable as propositions. `p & q` and `false` desugar at parse time.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import NamedTuple

from . import lmu, pctl, terms
from .rationals import RationalParseError, parse_rational

__all__ = ["ParseError", "parse_lmu", "parse_pctl", "parse_term"]


class ParseError(ValueError):
    def __init__(self, message: str, column: int):
        super().__init__(f"column {column}: {message}")
        self.column = column


class Token(NamedTuple):
    kind: str  # "sym", "num", "ident", "eof"
    text: str
    column: int


_NUM = r"\d+(/\d+|\.\d+)?"
_IDENT = r"[A-Za-z_]\w*(@[A-Za-z_]\w*)?"

# the connectives' symbols come before "(", so `(+)` and `(.)` win over it
_FORMULA_SYMBOLS = (*(s for _, s in lmu.INFIX), *lmu.PREFIX.values(), "(", ")", ".", "*", "~")
_PREFIX = {symbol: cls for cls, symbol in lmu.PREFIX.items()}
_TIGHTEST = len(lmu.INFIX)  # the level past the infix connectives
_PCTL_SYMBOLS = (">=", ">", "!", "|", "&", "(", ")", "[", "]")


@functools.cache
def _token_pattern(symbols: tuple[str, ...]) -> re.Pattern:
    """One token and the whitespace after it: the first listed symbol that
    matches, else a rational, else an identifier."""
    syms = "|".join(map(re.escape, symbols))
    return re.compile(rf"(?:(?P<sym>{syms})|(?P<num>{_NUM})|(?P<ident>{_IDENT}))\s*")


def _tokenize(text: str, symbols: tuple[str, ...]) -> list[Token]:
    pattern = _token_pattern(symbols)
    tokens: list[Token] = []
    i, n = len(text) - len(text.lstrip()), len(text)
    while i < n:
        m = pattern.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i + 1)
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), i + 1))
        i = m.end()
    tokens.append(Token("eof", "", n + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def next(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_ident(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == text

    def eat_sym(self, text: str) -> None:
        tok = self.next()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.column)

    def eat_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected an identifier, found {tok.text or 'end of input'!r}", tok.column)
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.column)


def _number(tok: Token) -> Fraction:
    try:
        return parse_rational(tok.text)
    except RationalParseError as exc:
        raise ParseError(str(exc), tok.column) from exc


def _unit_number(tok: Token, what: str) -> Fraction:
    """The rational of a number token, in [0, 1]; `what` names it in the error."""
    if tok.kind != "num":
        raise ParseError(f"expected a rational, found {tok.text or 'end of input'!r}", tok.column)
    q = _number(tok)
    if not (0 <= q <= 1):
        raise ParseError(f"{what} {tok.text} outside [0, 1]", tok.column)
    return q


# -- fixed-point formulas ---------------------------------------------------


class _LmuParser:
    _SCALAR_BODY = "phi"  # the operand named in the bare-rational message

    def __init__(self, text: str):
        self.cur = _Cursor(_tokenize(text, _FORMULA_SYMBOLS))

    def parse(self) -> lmu.Lmu:
        phi = self.binary(frozenset())
        self.cur.done()
        return phi

    def binder(self, env: frozenset[str]) -> lmu.Lmu:
        tok = self.cur.next()
        name_tok = self.cur.eat_ident()
        self._check_bound_name(name_tok)
        name = name_tok.text
        self.cur.eat_sym(".")
        # a parenthesized body delimits the scope, otherwise it extends
        # maximally to the right
        if self.cur.at_sym("("):
            self.cur.next()
            body = self.binary(env | {name})
            self.cur.eat_sym(")")
        else:
            body = self.binary(env | {name})
        return lmu.Mu(name, body) if tok.text == "mu" else lmu.Nu(name, body)

    def _check_bound_name(self, tok: Token) -> None:
        if tok.text in ("mu", "nu"):
            raise ParseError(f"{tok.text} is a keyword, not a variable", tok.column)

    def binary(self, env: frozenset[str], level: int = 0) -> lmu.Lmu:
        """A left-associative chain of the infix connective `lmu.INFIX[level]`
        over operands that bind tighter."""
        if level == _TIGHTEST:
            return self.modal(env)
        cls, symbol = lmu.INFIX[level]
        left = self.binary(env, level + 1)
        while self.cur.at_sym(symbol):
            self.cur.next()
            left = cls(left, self.binary(env, level + 1))
        return left

    def modal(self, env: frozenset[str]) -> lmu.Lmu:
        cls = _PREFIX.get(self.cur.peek().text)
        if cls is None:
            return self.scalar(env)
        self.cur.next()
        return cls(self.modal(env))

    def scalar(self, env: frozenset[str]) -> lmu.Lmu:
        tok = self.cur.peek()
        if tok.kind == "num":
            self.cur.next()
            if self.cur.at_sym("*"):
                self.cur.next()
                return lmu.Scalar(_unit_number(tok, "coefficient"), self.scalar(env))
            if tok.text == "1":
                return lmu.ONE
            if tok.text == "0":
                return lmu.ZERO
            raise ParseError(
                f"bare rational {tok.text}; only literals 0 and 1 (or q*{self._SCALAR_BODY})",
                tok.column,
            )
        return self.atom(env)

    def atom(self, env: frozenset[str]) -> lmu.Lmu:
        if self.cur.at_ident("mu") or self.cur.at_ident("nu"):
            return self.binder(env)
        tok = self.cur.next()
        if tok.kind == "sym" and tok.text == "(":
            phi = self.binary(env)
            self.cur.eat_sym(")")
            return phi
        return self.leaf(tok, env)

    def leaf(self, tok: Token, env: frozenset[str]) -> lmu.Lmu:
        """A complemented proposition or an identifier."""
        if tok.kind == "sym" and tok.text == "~":
            name = self.cur.eat_ident()
            if name.text in env:
                raise ParseError(f"complement applies to propositions, {name.text} is bound", name.column)
            if not name.text[0].isupper():
                raise ParseError(f"proposition {name.text!r} must start uppercase", name.column)
            return lmu.CoProp(name.text)
        if tok.kind == "ident":
            if tok.text in env:
                return lmu.Var(tok.text)
            if tok.text[0].isupper():
                return lmu.Prop(tok.text)
            raise ParseError(f"unbound variable {tok.text!r}", tok.column)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column)


def parse_lmu(text: str) -> lmu.Lmu:
    """Parse a closed fixed-point formula."""
    return _LmuParser(text).parse()


# -- terms ------------------------------------------------------------------


class _TermParser(_LmuParser):
    """The formula grammar without modalities, propositions or complements:
    every identifier is a variable, free ones included."""

    _SCALAR_BODY = "t"

    def _check_bound_name(self, tok: Token) -> None:
        super()._check_bound_name(tok)
        if tok.text[0].isupper():
            raise ParseError(f"term variables start lowercase, got {tok.text!r}", tok.column)

    def modal(self, env: frozenset[str]) -> lmu.Lmu:
        return self.scalar(env)

    def leaf(self, tok: Token, env: frozenset[str]) -> lmu.Lmu:
        if tok.kind == "ident":
            self._check_bound_name(tok)
            return lmu.Var(tok.text)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column)


def parse_term(text: str) -> terms.Term:
    """Parse a fixed-point term; free variables are allowed."""
    return _TermParser(text).parse()


# -- PCTL ---------------------------------------------------------------------

_PCTL_KEYWORDS = {"true", "false", "E", "A", "X", "U", "Pmax", "Pmin"}


class _PctlParser:
    def __init__(self, text: str):
        self.cur = _Cursor(_tokenize(text, _PCTL_SYMBOLS))

    def parse(self) -> pctl.PctlState:
        phi = self.state()
        self.cur.done()
        return phi

    def state(self) -> pctl.PctlState:
        left = self.conj()
        while self.cur.at_sym("|"):
            self.cur.next()
            left = pctl.Or(left, self.conj())
        return left

    def conj(self) -> pctl.PctlState:
        left = self.unary()
        while self.cur.at_sym("&"):
            self.cur.next()
            left = pctl.conj(left, self.unary())
        return left

    def unary(self) -> pctl.PctlState:
        tok = self.cur.peek()
        if tok.kind == "sym" and tok.text == "!":
            self.cur.next()
            return pctl.Not(self.unary())
        if tok.kind == "ident" and tok.text in ("E", "A"):
            self.cur.next()
            path = self.quantified_path()
            return pctl.Exists(path) if tok.text == "E" else pctl.Forall(path)
        if tok.kind == "ident" and tok.text in ("Pmax", "Pmin"):
            self.cur.next()
            strict = self._relation()
            bound = _unit_number(self.cur.next(), "probability bound")
            self.cur.eat_sym("[")
            path = self.bracketed_path()
            self.cur.eat_sym("]")
            cls = pctl.ProbExists if tok.text == "Pmax" else pctl.ProbForall
            return cls(strict, bound, path)
        return self.atom()

    def _relation(self) -> bool:
        tok = self.cur.next()
        if tok.kind == "sym" and tok.text == ">":
            return True
        if tok.kind == "sym" and tok.text == ">=":
            return False
        raise ParseError(f"expected > or >=, found {tok.text or 'end of input'!r}", tok.column)

    def quantified_path(self) -> pctl.PctlPath:
        """The path after `E` or `A`: `X phi` or `[phi U psi]`."""
        if self.cur.at_ident("X"):
            self.cur.next()
            return pctl.Next(self.unary())
        if self.cur.at_sym("["):
            self.cur.next()
            path = self.until()
            self.cur.eat_sym("]")
            return path
        tok = self.cur.peek()
        raise ParseError(f"expected X or [ after a path quantifier, found {tok.text!r}", tok.column)

    def bracketed_path(self) -> pctl.PctlPath:
        """The path inside `Pmax...[ ]` or `Pmin...[ ]`: `X phi` or `phi U psi`."""
        if self.cur.at_ident("X"):
            self.cur.next()
            return pctl.Next(self.state())
        return self.until()

    def until(self) -> pctl.Until:
        left = self.state()
        tok = self.cur.next()
        if tok.kind != "ident" or tok.text != "U":
            raise ParseError(f"expected U, found {tok.text or 'end of input'!r}", tok.column)
        return pctl.Until(left, self.state())

    def atom(self) -> pctl.PctlState:
        tok = self.cur.next()
        if tok.kind == "sym" and tok.text == "(":
            phi = self.state()
            self.cur.eat_sym(")")
            return phi
        if tok.kind == "ident":
            if tok.text == "true":
                return pctl.TRUE
            if tok.text == "false":
                return pctl.false()
            if tok.text in _PCTL_KEYWORDS:
                raise ParseError(f"{tok.text} is a keyword, not a proposition", tok.column)
            if not tok.text[0].isupper():
                raise ParseError(f"proposition {tok.text!r} must start uppercase", tok.column)
            return pctl.Prop(tok.text)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.column)


def parse_pctl(text: str) -> pctl.PctlState:
    """Parse a PCTL state formula."""
    return _PctlParser(text).parse()

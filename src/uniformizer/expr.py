"""Parsing of polynomial and rational-function expressions.

The grammar covers exactly what the printers emit, so every rendered
element round-trips:

    expr     :=  term (('+' | '-') term)*
    term     :=  factor (('*' | '/') factor)*
    factor   :=  '-' factor | power
    power    :=  primary ('^' exponent)?
    primary  :=  INTEGER | NAME | '(' expr ')'
    exponent :=  INTEGER | '-' INTEGER | '(' ['-'] INTEGER ')'

'^' binds tighter than unary minus, so -x^2 means -(x^2).  Integer
literals are decimal digits; exponents are integer literals, and negative
exponents invert.  Series literals are sums of t-monomials with a trailing
+ O(t^N) marking the precision; ``parse_series`` checks that tail with the
parser's own cursor, then parses the head from the same tokens, so a
literal is tokenized once.

The parser evaluates in the polynomial ring: its values are ``SparsePoly``
until a division by a nonconstant or a negative power makes a quotient,
and only then ``RationalFunction``.  A sum of polynomials collects its
terms in one dict, a product or power of monomials is one exponent tuple
and one scalar, and a quotient of two polynomials is one
``RationalFunction.make``.  The canonical form of a rational function is
unique, so the result is the element the same arithmetic on rational
functions would give.  The parser returns the type it built:
``parse_element`` wraps it as a ``RationalFunction``, and
``parse_polynomial`` takes a polynomial as it is.

The parser descends recursively, so it bounds the nesting of parentheses
and unary minus signs at MAX_NESTING and reports deeper input as a syntax
error, well before the interpreter's recursion limit.  Tokens carry their
character offset; line and column are worked out only for an error.
"""

from __future__ import annotations

import re
from math import lcm
from typing import NamedTuple, Union

from .errors import ExprSyntaxError, InputError
from .fields import BaseField
from .polyfield import RationalFunction, SparsePoly

MAX_NESTING = 100

Value = Union[SparsePoly, RationalFunction]


class _Token(NamedTuple):
    kind: str  # "int", "name", "op", "end"
    text: str
    offset: int


def _syntax_error(text: str, message: str, offset: int) -> ExprSyntaxError:
    """The error at a character offset, with its 1-based line and column."""
    line = text.count("\n", 0, offset) + 1
    return ExprSyntaxError(message, line, offset - text.rfind("\n", 0, offset))


# one token per match, after any whitespace: \d is exactly str.isdecimal (the
# digits int() reads) and \w exactly str.isalnum or '_'; the last group
# catches any other character
_TOKENS = re.compile(r"[ \t\r\n]*(?:(\d+)|(\w+)|([-+*/^()])|([^ \t\r\n]))")
_KINDS = (None, "int", "name", "op")


def _tokenize(text: str) -> list[_Token]:
    out = []
    for m in _TOKENS.finditer(text):
        group = m.lastindex
        word = m.group(group)
        # a name starts with a letter or '_', not with a digit such as '²'
        if group == 4 or group == 2 and not (word[0].isalpha() or word[0] == "_"):
            raise _syntax_error(text, f"unexpected character {word[0]!r}", m.start(group))
        out.append(_Token(_KINDS[group], word, m.start(group)))
    out.append(_Token("end", "", len(text)))
    return out


def _integer(text: str, tok: _Token) -> int:
    """The value of an integer token; one longer than the interpreter
    converts (sys.get_int_max_str_digits) is a syntax error."""
    try:
        return int(tok.text)
    except ValueError:
        raise _syntax_error(
            text, f"integer literal too long ({len(tok.text)} digits)", tok.offset
        ) from None


def _as_ratfun(v: Value) -> RationalFunction:
    return v if isinstance(v, RationalFunction) else RationalFunction.from_poly(v)


class _Parser:
    def __init__(self, text: str, base: BaseField, names):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs around the current token
        self.base = base
        self.nvars = len(names)
        self.index = {}
        for i, name in enumerate(names):
            self.index.setdefault(name, i)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise _syntax_error(self.text, message, tok.offset)

    def nest(self, tok: _Token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("expression nested too deeply", tok)

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            self.fail(f"expected {op!r}", tok)

    def at_op(self, ops: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "op" and tok.text in ops

    # grammar ------------------------------------------------------------

    def parse(self) -> Value:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail("trailing input")
        return value

    def expr(self) -> Value:
        value = self.term()
        if not self.at_op("+-"):
            return value
        # polynomial terms add up in one dict of integers over the common
        # denominator den, quotients as rational functions
        acc, den, quotient, negate = {}, 1, None, False
        while True:
            if isinstance(value, RationalFunction):
                value = -value if negate else value
                quotient = value if quotient is None else quotient + value
            else:
                d = lcm(den, value.denom)
                if d != den:
                    acc, den = {e: c * (d // den) for e, c in acc.items()}, d
                s = den // value.denom
                s = -s if negate else s
                for e, c in value.ints:
                    acc[e] = acc.get(e, 0) + c * s
            if not self.at_op("+-"):
                break
            negate = self.take().text == "-"
            value = self.term()
        total = SparsePoly._canon(self.base, self.nvars, acc, den)
        if quotient is None:
            return total
        if total.is_zero:
            return quotient
        return RationalFunction.make(quotient.num + total * quotient.den, quotient.den)

    def term(self) -> Value:
        value = self.factor()
        while self.at_op("*/"):
            op = self.take().text
            tok = self.peek()
            rhs = self.factor()
            if op == "*":
                value = self.product(value, rhs)
            else:
                if rhs.is_zero:
                    self.fail("division by zero", tok)
                value = self.quotient(value, rhs)
        return value

    def product(self, a: Value, b: Value) -> Value:
        if isinstance(a, RationalFunction) or isinstance(b, RationalFunction):
            return _as_ratfun(a) * _as_ratfun(b)
        return a * b

    def quotient(self, a: Value, b: Value) -> Value:
        if isinstance(a, SparsePoly) and isinstance(b, SparsePoly):
            if b.is_constant:
                return a._scale(self.base.inv(b.constant_value()))
            return RationalFunction.make(a, b)
        return _as_ratfun(a) / _as_ratfun(b)

    def factor(self) -> Value:
        if self.at_op("-"):
            self.nest(self.take())
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> Value:
        value = self.primary()
        if self.at_op("^"):
            tok = self.take()
            k = self.exponent()
            if k < 0 and value.is_zero:
                self.fail("zero raised to a negative power", tok)
            if isinstance(value, RationalFunction):
                return value ** k
            if k == 0:
                return SparsePoly.const(self.base, self.nvars, 1)
            if k < 0:
                if not value.is_constant:
                    return RationalFunction.make(SparsePoly.const(self.base, self.nvars, 1), value ** -k)
                value, k = SparsePoly.const(self.base, self.nvars, self.base.inv(value.constant_value())), -k
            value = value ** k
        return value

    def exponent(self) -> int:
        neg = False
        parens = False
        if self.at_op("("):
            self.take()
            parens = True
        if self.at_op("-"):
            self.take()
            neg = True
        tok = self.take()
        if tok.kind != "int":
            self.fail("expected an integer exponent", tok)
        if parens:
            self.expect_op(")")
        k = _integer(self.text, tok)
        return -k if neg else k

    def primary(self) -> Value:
        tok = self.take()
        if tok.kind == "int":
            c = _integer(self.text, tok)
            return SparsePoly.const(self.base, self.nvars, c)
        if tok.kind == "name":
            i = self.index.get(tok.text)
            if i is None:
                self.fail(f"unknown variable {tok.text!r}", tok)
            return SparsePoly.variable(self.base, self.nvars, i)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        self.fail("expected a number, a variable, or '('", tok)


def parse_element(text: str, base: BaseField, names) -> RationalFunction:
    """Parse an expression over the given variable names."""
    return _as_ratfun(_Parser(text, base, names).parse())


def parse_polynomial(text: str, base: BaseField, names) -> SparsePoly:
    """Parse an expression that must be a polynomial; a quotient by a
    constant, such as (x^2 - 1)/(x - 1) once reduced, is scaled."""
    value = _Parser(text, base, names).parse()
    if isinstance(value, SparsePoly):
        return value
    if not value.den.is_constant:
        raise InputError("expected a polynomial, got a proper fraction")
    return value.num.scale(base.inv(value.den.constant_value()))


def parse_series(text: str, base: BaseField, name: str = "t") -> TruncatedSeries:
    """Parse a series literal: a polynomial in one variable plus O(name^N).

    The O-term is required; its exponent, read as any exponent (so
    O(t^-1) too), fixes the precision.  The polynomial part may use
    negative exponents of the variable (a Laurent head).
    """
    from .series import TruncatedSeries, ratfun_to_series

    p = _Parser(text, base, (name,))
    tokens = p.tokens
    # locate the trailing "+ O(name^N)"
    o_at = next((i for i, tok in enumerate(tokens) if tok.kind == "name" and tok.text == "O"), None)
    if o_at is None:
        raise _syntax_error(text, "series literal needs a precision marker O(...)", len(text))
    p.pos = o_at + 1
    if not p.at_op("("):
        p.fail("expected '(' after O")
    p.take()
    tok = p.take()
    if tok.kind != "name" or tok.text != name:
        p.fail(f"expected {name!r} inside O(...)", tok)
    precision = 1
    if p.at_op("^"):
        p.take()
        precision = p.exponent()
    p.expect_op(")")
    if p.peek().kind != "end":
        p.fail("trailing input after O(...)")

    p.pos = o_at - 1
    head_end = p.pos if o_at and p.at_op("+") else o_at
    if head_end == 0:
        return TruncatedSeries.zero(base, precision)
    # the head: every token before the tail "+ O(...)", ended where the tail begins
    p.tokens, p.pos = tokens[:head_end] + [_Token("end", "", tokens[head_end].offset)], 0
    return ratfun_to_series(_as_ratfun(p.parse()), precision)

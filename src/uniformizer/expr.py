"""Parsing of polynomial and rational-function expressions.

The grammar covers exactly what the printers emit, so every rendered
element round-trips:

    expr     :=  term (('+' | '-') term)*
    term     :=  factor (('*' | '/') factor)*
    factor   :=  '-' factor | power
    power    :=  primary ('^' exponent)?
    primary  :=  INTEGER | NAME | '(' expr ')'
    exponent :=  INTEGER | '-' INTEGER | '(' ['-'] INTEGER ')'

'^' binds tighter than unary minus, so -x^2 means -(x^2).  Exponents are
integer literals; negative exponents invert.  Series literals are sums of
t-monomials with a trailing + O(t^N) marking the precision.

The parser descends recursively, so it bounds the nesting of parentheses
and unary minus signs at MAX_NESTING and reports deeper input as a syntax
error, well before the interpreter's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ExprSyntaxError
from .fields import BaseField
from .polyfield import RationalFunction
from .series import TruncatedSeries, ratfun_to_series

MAX_NESTING = 100


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "name", "op", "end"
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^()":
            out.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("end", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str, base: BaseField, names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses and unary minus signs around the current token
        self.base = base
        self.names = list(names)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, tok.line, tok.column)

    def nest(self, tok: _Token):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail("expression nested too deeply", tok)

    def expect_op(self, op: str):
        tok = self.take()
        if tok.kind != "op" or tok.text != op:
            self.fail(f"expected {op!r}", tok)

    # grammar ------------------------------------------------------------

    def parse(self) -> RationalFunction:
        value = self.expr()
        if self.peek().kind != "end":
            self.fail("trailing input")
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            tok = self.peek()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero:
                    self.fail("division by zero", tok)
                value = value / rhs
        return value

    def factor(self) -> RationalFunction:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.nest(self.take())
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> RationalFunction:
        value = self.primary()
        if self.peek().kind == "op" and self.peek().text == "^":
            tok = self.take()
            k = self.exponent()
            if k < 0 and value.is_zero:
                self.fail("zero raised to a negative power", tok)
            value = value ** k
        return value

    def exponent(self) -> int:
        neg = False
        parens = False
        if self.peek().kind == "op" and self.peek().text == "(":
            self.take()
            parens = True
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            neg = True
        tok = self.take()
        if tok.kind != "int":
            self.fail("expected an integer exponent", tok)
        if parens:
            self.expect_op(")")
        k = int(tok.text)
        return -k if neg else k

    def primary(self) -> RationalFunction:
        tok = self.take()
        if tok.kind == "int":
            return RationalFunction.const(self.base, len(self.names), int(tok.text))
        if tok.kind == "name":
            try:
                i = self.names.index(tok.text)
            except ValueError:
                self.fail(f"unknown variable {tok.text!r}", tok)
            return RationalFunction.variable(self.base, len(self.names), i)
        if tok.kind == "op" and tok.text == "(":
            self.nest(tok)
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        self.fail("expected a number, a variable, or '('", tok)


def parse_element(text: str, base: BaseField, names) -> RationalFunction:
    """Parse an expression over the given variable names."""
    return _Parser(text, base, names).parse()


def parse_series(text: str, base: BaseField, name: str = "t") -> TruncatedSeries:
    """Parse a series literal: a polynomial in one variable plus O(name^N).

    The O-term is required; it fixes the precision.  The polynomial part
    may use negative exponents of the variable (a Laurent head).
    """
    tokens = _tokenize(text)
    # locate the trailing "+ O(name^N)"
    o_at = None
    for i, tok in enumerate(tokens):
        if tok.kind == "name" and tok.text == "O":
            o_at = i
            break
    if o_at is None:
        raise ExprSyntaxError(
            "series literal needs a precision marker O(...)",
            tokens[-1].line,
            tokens[-1].column,
        )

    def op(i, ch):
        return tokens[i].kind == "op" and tokens[i].text == ch

    i = o_at + 1
    if not op(i, "("):
        raise ExprSyntaxError("expected '(' after O", tokens[i].line, tokens[i].column)
    i += 1
    if not (tokens[i].kind == "name" and tokens[i].text == name):
        raise ExprSyntaxError(f"expected {name!r} inside O(...)", tokens[i].line, tokens[i].column)
    i += 1
    precision = 1
    if op(i, "^"):
        i += 1
        if tokens[i].kind != "int":
            raise ExprSyntaxError("expected an integer exponent", tokens[i].line, tokens[i].column)
        precision = int(tokens[i].text)
        i += 1
    if not op(i, ")"):
        raise ExprSyntaxError("expected ')'", tokens[i].line, tokens[i].column)
    if tokens[i + 1].kind != "end":
        raise ExprSyntaxError("trailing input after O(...)", tokens[i + 1].line, tokens[i + 1].column)

    head_end = o_at
    if head_end > 0 and tokens[head_end - 1].kind == "op" and tokens[head_end - 1].text == "+":
        head_end -= 1
    head = tokens[:head_end]
    if not head:
        return TruncatedSeries.zero(base, precision)
    src = text[: _offset_of(text, tokens[head_end])]
    return ratfun_to_series(parse_element(src, base, (name,)), precision)


def _offset_of(text: str, tok: _Token) -> int:
    """Character offset of a token within the source text."""
    line, col = 1, 1
    for i, ch in enumerate(text):
        if line == tok.line and col == tok.column:
            return i
        if ch == "\n":
            line += 1
            col = 1
        else:
            col += 1
    return len(text)

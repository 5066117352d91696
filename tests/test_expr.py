"""Expression and series-literal parsing; round-trips with the printers."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from uniformizer.errors import ExprSyntaxError, SchemaError
from uniformizer.expr import parse_element, parse_series
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly, poly_str, ratfun_str
from uniformizer.series import TruncatedSeries, series_str

Q = QQ()
F5 = GF(5)


def test_parse_polynomial():
    f = parse_element("2*x^3 - x*y + 5", Q, ("x", "y"))
    x = RationalFunction.variable(Q, 2, 0)
    y = RationalFunction.variable(Q, 2, 1)
    two = RationalFunction.const(Q, 2, 2)
    five = RationalFunction.const(Q, 2, 5)
    assert f == two * x ** 3 - x * y + five


def test_parse_quotients_and_parens():
    f = parse_element("(x + 1)/(x - 1)", Q, ("x",))
    assert ratfun_str(f, ("x",)) == "(x + 1)/(x - 1)"
    g = parse_element("x^-2", Q, ("x",))
    assert ratfun_str(g, ("x",)) == "(1)/(x^2)"
    h = parse_element("x^(-2)", Q, ("x",))
    assert g == h


def test_unary_minus_and_power_binding():
    f = parse_element("-x^2", Q, ("x",))
    x = RationalFunction.variable(Q, 1, 0)
    assert f == -(x ** 2)
    assert parse_element("-2^2", Q, ()) == RationalFunction.const(Q, 0, -4)


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as exc:
        parse_element("x + @", Q, ("x",))
    assert "(line 1, column 5)" in str(exc.value)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_element("x + w", Q, ("x",))
    assert "unknown variable 'w'" in str(exc.value)
    with pytest.raises(ExprSyntaxError) as exc:
        parse_element("x /\n(x - x)", Q, ("x",))
    assert "division by zero" in str(exc.value)
    assert "(line 2, column 1)" in str(exc.value)
    with pytest.raises(ExprSyntaxError):
        parse_element("x + ", Q, ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_element("x x", Q, ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_element("0^-1", Q, ("x",))


def test_parse_series_literal():
    s = parse_series("1 + 3*t + 3*t^2 + O(t^6)", F5)
    assert [s.coefficient(k) for k in range(3)] == [1, 3, 3]
    assert s.precision == 6
    z = parse_series("O(t^4)", Q)
    assert z.is_zero_to_precision and z.precision == 4
    lau = parse_series("t^-1 + 2 + O(t)", Q)
    assert lau.offset == -1 and lau.coefficient(0) == 2


def test_parse_series_rational_head():
    # the head may be any univariate rational function; it is expanded
    s = parse_series("1/(1 - t) + O(t^5)", Q)
    assert [s.coefficient(k) for k in range(5)] == [1] * 5


def test_parse_series_errors():
    with pytest.raises(ExprSyntaxError):
        parse_series("1 + t", Q)  # missing the O(...) marker
    with pytest.raises(ExprSyntaxError):
        parse_series("1 + O(u^4)", Q)  # wrong variable inside O(...)
    with pytest.raises(ExprSyntaxError):
        parse_series("1 + O(t^4) + t", Q)  # trailing input


# every error a series literal can raise past the tokenizer: the message, then
# the line and column, which the marker's scan and the head's parse both take
# from offsets into the whole text
@pytest.mark.parametrize("text, message, line, column", [
    ("1 + t", "series literal needs a precision marker O(...)", 1, 6),
    ("1 +\n t", "series literal needs a precision marker O(...)", 2, 3),
    ("1 + O t^4", "expected '(' after O", 1, 7),
    ("1 + O", "expected '(' after O", 1, 6),
    ("1 + O(u^4)", "expected 't' inside O(...)", 1, 7),
    ("1 + O(\n  2)", "expected 't' inside O(...)", 2, 3),
    ("1 + O(t^x)", "expected an integer exponent", 1, 9),
    ("1 + O(t^)", "expected an integer exponent", 1, 9),
    ("1 + O(t^4", "expected ')'", 1, 10),
    ("1 + O(t^4 t", "expected ')'", 1, 11),
    ("1 + O(t^4) + t", "trailing input after O(...)", 1, 12),
    ("O(t^2)\n*t", "trailing input after O(...)", 2, 1),
    # the head ends where its "+ O" begins
    ("1 + + O(t^3)", "expected a number, a variable, or '('", 1, 5),
    ("(1 + O(t^3)", "expected ')'", 1, 4),
    ("1\n+ (t\n+ O(t^3)", "expected ')'", 3, 1),
    ("t * O(t^3)", "expected a number, a variable, or '('", 1, 5),
    ("u + O(t^3)", "unknown variable 'u'", 1, 1),
])
def test_series_literal_errors_pinned(text, message, line, column):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_series(text, Q)
    assert str(exc.value) == f"{message} (line {line}, column {column})"
    assert (exc.value.line, exc.value.column) == (line, column)


def test_series_round_trip():
    s = TruncatedSeries.make(F5, 1, [2, 0, 4], 9)
    again = parse_series(series_str(s), F5)
    assert (s - again).is_zero_to_precision and again.precision == s.precision


@given(
    st.sampled_from([Q, F5, GF(7)]),
    st.integers(-4, 4),
    st.lists(st.fractions(-50, 50, max_denominator=6), max_size=6),
    st.integers(0, 6),
)
@settings(max_examples=150, deadline=None)
def test_series_literals_round_trip_exactly(base, offset, coeffs, slack):
    if base.p:
        coeffs = [q.numerator for q in coeffs]
    # the O(...) exponent is read unsigned, so the precision stays at 0 or above
    s = TruncatedSeries.make(base, offset, coeffs, max(offset + len(coeffs) + slack, 0))
    assert parse_series(series_str(s), base) == s


def test_a_series_literal_is_tokenized_once(monkeypatch):
    from uniformizer import expr

    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    tokenize = expr._tokenize
    monkeypatch.setattr(expr, "_tokenize", counting)
    texts = ["1 + 3*t + 3*t^2 + O(t^6)", "O(t^4)", "t^-1 + 2 + O(t)", "1/(1 - t) + O(t^5)"]
    for text in texts:
        parse_series(text, F5)
    assert calls == texts


# ---------------------------------------------------------------------------
# printer -> parser round-trip on random elements


@st.composite
def ratfuns(draw, base, nvars):
    def poly():
        n = draw(st.integers(min_value=1, max_value=3))
        terms = []
        for _ in range(n):
            e = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
            terms.append((e, draw(st.integers(min_value=-6, max_value=6))))
        return SparsePoly.make(base, nvars, terms)

    num = poly()
    den = poly()
    if den.is_zero:
        den = SparsePoly.const(base, nvars, 1)
    return RationalFunction.make(num, den)


@given(st.sampled_from([0, 1]), st.data())
@settings(max_examples=80, deadline=None)
def test_rendered_elements_reparse(which, data):
    base = [Q, F5][which]
    names = ("t", "z")
    f = data.draw(ratfuns(base, 2))
    text = ratfun_str(f, names)
    assert parse_element(text, base, names) == f


# ---------------------------------------------------------------------------
# differential test: the parser against rational-function arithmetic
#
# The parser computes in the polynomial ring and forms a quotient only where
# one appears.  The oracle below is the straightforward reading of the
# grammar: every operator is one RationalFunction operation, and tokens
# track their line and column as they are read.  Both must agree on every
# value and on every error: message, line and column.

F7 = GF(7)
NAMES = ("x", "y")


def _oracle_tokens(text):
    out, line, col, i = [], 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n":
            line, col = (line + 1, 1) if ch == "\n" else (line, col + 1)
            i += 1
            continue
        j = i + 1
        if ch.isdecimal():
            kind = "int"
            while j < len(text) and text[j].isdecimal():
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch in "+-*/^()":
            kind = "op"
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        out.append((kind, text[i:j], line, col))
        col += j - i
        i = j
    out.append(("end", "", line, col))
    return out


class _OracleParser:
    """const(c) and variable(i) make the leaves; the operators of the values
    they return do the arithmetic."""

    def __init__(self, text, names, const, variable):
        self.tokens = _oracle_tokens(text)
        self.pos, self.depth = 0, 0
        self.names, self.const, self.variable = list(names), const, variable

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ExprSyntaxError(message, tok[2], tok[3])

    def at(self, ops):
        kind, text, _, _ = self.peek()
        return kind == "op" and text in ops

    def nest(self, tok):
        self.depth += 1
        if self.depth > 100:
            self.fail("expression nested too deeply", tok)

    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input")
        return value

    def expr(self):
        value = self.term()
        while self.at("+-"):
            op = self.take()[1]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.at("*/"):
            op = self.take()[1]
            tok = self.peek()
            rhs = self.factor()
            if op == "/" and rhs.is_zero:
                self.fail("division by zero", tok)
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        if self.at("-"):
            self.nest(self.take())
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.primary()
        if self.at("^"):
            tok = self.take()
            parens = self.at("(") and self.take()
            neg = self.at("-") and self.take()
            k_tok = self.take()
            if k_tok[0] != "int":
                self.fail("expected an integer exponent", k_tok)
            if parens and self.take()[1] != ")":
                self.fail("expected ')'", self.tokens[self.pos - 1])
            k = -int(k_tok[1]) if neg else int(k_tok[1])
            if k < 0 and value.is_zero:
                self.fail("zero raised to a negative power", tok)
            value = value ** k
        return value

    def primary(self):
        tok = self.take()
        if tok[0] == "int":
            return self.const(int(tok[1]))
        if tok[0] == "name":
            if tok[1] not in self.names:
                self.fail(f"unknown variable {tok[1]!r}", tok)
            return self.variable(self.names.index(tok[1]))
        if tok[:2] == ("op", "("):
            self.nest(tok)
            value = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'", self.take())
            self.take()
            self.depth -= 1
            return value
        self.fail("expected a number, a variable, or '('", tok)


def _outcome(parse, text, base):
    try:
        return parse(text, base, NAMES)
    except ExprSyntaxError as e:
        return ("error", str(e), e.line, e.column)


def _oracle_parse(text, base, names):
    n = len(names)
    return _OracleParser(
        text, names,
        lambda c: RationalFunction.const(base, n, c), lambda i: RationalFunction.variable(base, n, i),
    ).parse()


def _evaluate(tree, base):
    """The value of an expression tree, one RationalFunction operation per node;
    None where the tree divides by zero or raises zero to a negative power."""
    kind = tree[0]
    if kind == "int":
        return RationalFunction.const(base, len(NAMES), tree[1])
    if kind == "var":
        return RationalFunction.variable(base, len(NAMES), NAMES.index(tree[1]))
    args = [_evaluate(t, base) for t in tree[1:] if isinstance(t, tuple)]
    if any(a is None for a in args):
        return None
    if kind == "neg":
        return -args[0]
    if kind == "^":
        k = tree[2]
        return None if k < 0 and args[0].is_zero else args[0] ** k
    a, b = args
    if kind == "/":
        return None if b.is_zero else a / b
    return {"+": a + b, "-": a - b, "*": a * b}[kind]


# precedence of each node kind: expr 0, term 1, factor 2, power 3, primary 4
_LEVEL = {"+": 0, "-": 0, "*": 1, "/": 1, "neg": 2, "^": 3, "int": 4, "var": 4}


def _render(tree, need, draw):
    kind = tree[0]
    space = lambda: draw(st.sampled_from(["", " ", " ", "\n", "\t"]))  # noqa: E731
    if kind in ("int", "var"):
        text = str(tree[1])
    elif kind == "neg":
        text = "-" + space() + _render(tree[1], 2, draw)
    elif kind == "^":
        k = tree[2]
        exp = draw(st.sampled_from([f"{k}", f"({k})"])) if k < 0 else str(k)
        text = _render(tree[1], 4, draw) + space() + "^" + space() + exp
    else:
        left, right = (0, 1) if kind in "+-" else (1, 2)
        text = _render(tree[1], left, draw) + space() + kind + space() + _render(tree[2], right, draw)
    if _LEVEL[kind] < need or draw(st.integers(0, 9)) == 0:
        text = "(" + space() + text + space() + ")"
    return text


class _Degrees:
    """A value known only by bounds on the degrees of its numerator and
    denominator; every bound formed is noted in seen.  No value counts as
    zero, so this reads on where the parsers stop at a zero divisor."""

    is_zero = False

    def __init__(self, num, den, seen):
        self.num, self.den, self.seen = num, den, seen
        seen.append(max(num, den))

    def __neg__(self):
        return self

    def __add__(self, o):
        return _Degrees(max(self.num + o.den, o.num + self.den), self.den + o.den, self.seen)

    __sub__ = __add__

    def __mul__(self, o):
        return _Degrees(self.num + o.num, self.den + o.den, self.seen)

    def __truediv__(self, o):
        return _Degrees(self.num + o.den, self.den + o.num, self.seen)

    def __pow__(self, k):
        num, den = (self.num, self.den) if k >= 0 else (self.den, self.num)
        return _Degrees(num * abs(k), den * abs(k), self.seen)


def _peak_degree(text):
    """A bound on the degrees of every value the parsers form on text, as far
    as they read it before they return or fail."""
    seen = [0]
    try:
        _OracleParser(
            text, NAMES, lambda c: _Degrees(0, 0, seen), lambda i: _Degrees(1, 0, seen)
        ).parse()
    except ExprSyntaxError:
        pass
    return max(seen)


# texts whose values could pass degree 6 are left out (one drawn tree in
# eight, one mutated text in twenty): poly_gcd can stall on larger
# two-variable quotients (see CHANGES.md), and the oracle meets them too.
# A mutation can raise the degree by far, say by making an exponent 3 into 30.
_trees = st.recursive(
    st.one_of(st.tuples(st.just("var"), st.sampled_from(NAMES)), st.tuples(st.just("int"), st.integers(0, 12))),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("^"), sub, st.integers(-2, 3)),
    ),
    max_leaves=8,
)


@given(st.sampled_from([Q, F5, F7]), _trees, st.data())
@settings(max_examples=300, deadline=None)
def test_parser_matches_ratfun_arithmetic(base, tree, data):
    text = _render(tree, 0, data.draw)
    assume(_peak_degree(text) <= 6)
    expected = _evaluate(tree, base)
    got = _outcome(parse_element, text, base)
    if expected is None:
        # division by zero or zero to a negative power: the same error as the oracle
        assert isinstance(got, tuple) and got == _outcome(_oracle_parse, text, base)
    else:
        assert got == expected
        assert _oracle_parse(text, base, NAMES) == expected


@given(st.sampled_from([Q, F5, F7]), _trees, st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_input_matches_the_oracle_parser(base, tree, data):
    text = _render(tree, 0, data.draw)
    # insert, replace or delete characters to break the text
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        ch = data.draw(st.sampled_from(list("+-*/^()0x yw@\n.²_")) | st.just(""))
        cut = data.draw(st.integers(0, 1))
        text = text[:at] + ch + text[at + cut:]
    assume(_peak_degree(text) <= 6)
    assert _outcome(parse_element, text, base) == _outcome(_oracle_parse, text, base)


# every way a quotient meets a polynomial, pinned: drawn trees reach some rarely
@pytest.mark.parametrize("base", [Q, F5, F7])
@pytest.mark.parametrize("text", [
    "1/x/2", "(x + 1)/y*3", "3*(x/y)", "x^-1*y", "y*x^-1", "2/(x/y)", "(x^2 - 1)/(x - 1)",
    "x^-2/3 + x - 1", "x + 1/y - 2/y", "x/y - x/y + 1", "(1/x)^-2", "3^-2*x", "(-2)^-3",
    "0^0", "(x - x)/y", "-(x/y)^2", "(x + y)^2/(x + y)",
])
def test_quotient_paths_match_the_oracle(base, text):
    assert parse_element(text, base, NAMES) == _oracle_parse(text, base, NAMES)


# ---------------------------------------------------------------------------
# one polynomial reader: parse_polynomial against parse_element then unwrap


def _element_unwrapped(text, base, names, path):
    """A row read as a rational function, then unwrapped to its polynomial."""
    try:
        rf = parse_element(text, base, names)
    except ExprSyntaxError as e:
        raise SchemaError(str(e), path) from None
    if not rf.den.is_constant:
        raise SchemaError("expected a polynomial, got a proper fraction", path)
    return rf.num.scale(base.inv(rf.den.constant_value()))


@st.composite
def _sparse_polys(draw, base):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 10**6) | st.integers(0, 4) for _ in range(nvars)])
    coeff = st.fractions(max_denominator=9) if base.is_rationals else st.integers(-9, 9)
    terms = draw(st.lists(st.tuples(exps, coeff), max_size=5))
    return SparsePoly.make(base, nvars, terms)


@given(st.sampled_from([Q, F5, F7]), st.data())
@settings(max_examples=150, deadline=None)
def test_rows_read_as_polynomials_match_the_unwrapped_element(base, data):
    from uniformizer.jsonio import _parse_poly

    f = data.draw(_sparse_polys(base))
    names = [f"X{i + 1}" for i in range(f.nvars)]
    text = poly_str(f, names)
    divisor = data.draw(st.sampled_from([None, "3", "(2 - 4)", "X1^0*6"]))
    if divisor is not None:
        text = f"({text})/{divisor}"
    got = _parse_poly(text, base, names, "fs[0]")
    assert got == _element_unwrapped(text, base, names, "fs[0]")
    if divisor is None:
        assert got == f


@pytest.mark.parametrize("base", [Q, F5, F7])
def test_a_row_reduces_to_a_polynomial_or_fails_as_a_proper_fraction(base):
    from uniformizer.jsonio import _parse_poly

    names = ("X1",)
    got = _parse_poly("(X1^2 - 1)/(X1 - 1)", base, names, "fs[0]")
    assert poly_str(got, names) == "X1 + 1"
    assert got == _element_unwrapped("(X1^2 - 1)/(X1 - 1)", base, names, "fs[0]")
    for text, message in [
        ("1/X1", "fs[0]: expected a polynomial, got a proper fraction"),
        ("X1 +", "fs[0]: expected a number, a variable, or '(' (line 1, column 5)"),
    ]:
        with pytest.raises(SchemaError) as exc:
            _parse_poly(text, base, names, "fs[0]")
        assert str(exc.value) == message
        with pytest.raises(SchemaError) as old:
            _element_unwrapped(text, base, names, "fs[0]")
        assert str(old.value) == message

"""Sparse polynomials and reduced rational functions."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from uniformizer import polyfield
from uniformizer.errors import PreconditionError
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import (
    RationalFunction,
    SparsePoly,
    hasse_derivative,
    poly_divexact,
    poly_gcd,
    poly_str,
    ratfun_str,
    substitute,
)

Q = QQ()
F5 = GF(5)
F7 = GF(7)


def P(base, nvars, terms):
    return SparsePoly.make(base, nvars, terms)


def test_terms_are_canonical():
    a = P(Q, 2, [((1, 0), 1), ((0, 2), 3), ((1, 0), -1)])
    assert a.terms == (((0, 2), Fraction(3)),)
    # structural equality is mathematical equality
    b = P(Q, 2, [((0, 2), 3)])
    assert a == b


def test_poly_str_examples():
    f = P(Q, 2, [((3, 0), 2), ((1, 1), -1), ((0, 0), 5)])
    assert poly_str(f, ("x1", "x2")) == "2*x1^3 - x1*x2 + 5"
    assert poly_str(P(Q, 1, []), ("x",)) == "0"


def test_hasse_derivative_examples():
    x = SparsePoly.variable(Q, 1, 0)
    f = x ** 3
    assert hasse_derivative(f, 2) == P(Q, 1, [((1,), 3)])
    # char 5: the plain 5th derivative of x^5 dies but the Hasse one survives
    x5 = SparsePoly.variable(F5, 1, 0) ** 5
    assert hasse_derivative(x5, 1).is_zero
    assert hasse_derivative(x5, 5) == P(F5, 1, [((0,), 1)])


def test_gcd_and_divexact():
    x = SparsePoly.variable(Q, 2, 0)
    y = SparsePoly.variable(Q, 2, 1)
    f = (x + y) * (x - y)
    g = (x + y) * x
    d = poly_gcd(f, g)
    assert poly_divexact(f, d) is not None
    assert poly_divexact(g, d) is not None
    # gcd of coprime polynomials is a constant
    assert poly_gcd(x, y).is_constant
    with pytest.raises(PreconditionError):
        poly_divexact(x * x + y, x + y)


def test_ratfun_normalization_rationals():
    x1 = SparsePoly.variable(Q, 2, 0)
    x2 = SparsePoly.variable(Q, 2, 1)
    num = x1 * x2.scale(2) + SparsePoly.const(Q, 2, 2)
    den = x1.scale(-4)
    f = RationalFunction.make(num, den)
    assert ratfun_str(f, ("x1", "x2")) == "(-x1*x2 - 1)/(2*x1)"


def test_ratfun_normalization_fp():
    t = SparsePoly.variable(F5, 1, 0)
    f = RationalFunction.make(t.scale(2), t.scale(4) + SparsePoly.const(F5, 1, 3))
    # denominator is made monic
    assert ratfun_str(f, ("t",)) == "(3*t)/(t + 2)"
    g = f ** -2
    assert ratfun_str(g, ("t",)) == "(4*t^2 + t + 1)/(t^2)"


def test_substitute_common_denominator():
    x = RationalFunction.variable(Q, 2, 0)
    y = RationalFunction.variable(Q, 2, 1)
    f = P(Q, 2, [((2, 0), 1), ((0, 1), 1)])  # x^2 + y
    out = _value(f, [x / y, y])
    assert out == (x * x) / (y * y) + y


def test_make_validates_external_input():
    with pytest.raises(PreconditionError):
        P(Q, 2, [((1,), 1)])  # one exponent for two variables
    with pytest.raises(PreconditionError):
        P(Q, 2, [((1, -1), 1)])
    with pytest.raises(PreconditionError):
        P(Q, 1, [((1,), True)])
    with pytest.raises(PreconditionError):
        P(F5, 1, [((1,), Fraction(1, 5))])


def test_map_vars_merges_exponents():
    f = P(Q, 2, [((1, 1), 1)])
    g = f.map_vars([0, 0], 1)  # both variables onto the first
    assert g == P(Q, 1, [((2,), 1)])
    # terms that land on one exponent add up
    h = P(Q, 2, [((1, 0), 1), ((0, 1), Fraction(1, 2))])
    assert h.map_vars([0, 0], 1) == P(Q, 1, [((1,), Fraction(3, 2))])
    assert P(F5, 2, [((1, 0), 3), ((0, 1), 2)]).map_vars([0, 0], 1).is_zero


# ---------------------------------------------------------------------------
# randomized algebra

_SCALARS = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw, base, nvars=2, max_terms=5, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = []
    for _ in range(n):
        e = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(nvars))
        terms.append((e, draw(_SCALARS)))
    return SparsePoly.make(base, nvars, terms)


@given(polys(Q), polys(Q), polys(Q))
@settings(max_examples=100)
def test_ring_axioms_rationals(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)
    assert (f - f).is_zero


@given(polys(F5), polys(F5))
@settings(max_examples=100)
def test_frobenius_char5(f, g):
    assert (f + g) ** 5 == f ** 5 + g ** 5


@given(polys(Q, nvars=1, max_terms=4, max_exp=6), _SCALARS, _SCALARS)
@settings(max_examples=100)
def test_taylor_identity_char0(f, a, z):
    _check_taylor(Q, f, a, z)


@given(polys(F5, nvars=1, max_terms=4, max_exp=6), _SCALARS, _SCALARS)
@settings(max_examples=100)
def test_taylor_identity_char5(f, a, z):
    _check_taylor(F5, f, a, z)


def _check_taylor(base, f, a, z):
    """f(z) = sum_i f^[i](a) (z - a)^i, evaluated at scalars."""
    a, z = base.coerce(a), base.coerce(z)
    deg = sum(f.terms[0][0]) if not f.is_zero else 0  # the leading term's total degree
    acc = base.zero
    for i in range(deg + 1):
        fi = hasse_derivative(f, i).evaluate([a])
        acc = base.add(acc, base.mul(fi, pow_scalar(base, base.sub(z, a), i)))
    assert acc == f.evaluate([z])


def pow_scalar(base, x, k):
    out = base.one
    for _ in range(k):
        out = base.mul(out, x)
    return out


@given(polys(Q, max_terms=3, max_exp=2), polys(Q, max_terms=3, max_exp=2))
@settings(max_examples=50, deadline=None)
def test_gcd_divides_both(f, g):
    d = poly_gcd(f, g)
    if d.is_zero:
        assert f.is_zero and g.is_zero
        return
    assert poly_divexact(f, d) * d == f
    assert poly_divexact(g, d) * d == g


@given(
    polys(Q, max_terms=2, max_exp=2),
    polys(Q, max_terms=2, max_exp=2),
    polys(Q, max_terms=2, max_exp=2),
    polys(Q, max_terms=2, max_exp=2),
)
@settings(max_examples=30, deadline=None)
def test_ratfun_field_axioms(a, b, c, d):
    if b.is_zero or d.is_zero:
        return
    x = RationalFunction.make(a, b)
    y = RationalFunction.make(c, d)
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero:
        assert (x / y) * y == x
    # normalization is idempotent: rebuilding from num/den changes nothing
    assert RationalFunction.make(x.num, x.den) == x


# ---------------------------------------------------------------------------
# exponent-space substitution and large exponents


def test_field_pow_is_square_and_multiply():
    assert Q.pow(Q.coerce(Fraction(-2, 3)), 5) == Fraction(-32, 243)
    assert Q.pow(Q.coerce(7), 0) == 1
    assert F5.pow(2, 10**8) == 1  # 2 has order 4 mod 5
    assert F5.pow(3, 10**8 + 1) == 3
    assert F5.pow(0, 0) == 1


def test_evaluate_at_huge_exponents():
    f = P(F5, 2, [((10**8, 3), 1), ((0, 0), 1)])  # x1^(10^8) * x2^3 + 1
    assert f.evaluate([2, 3]) == 3  # 1 * 27 + 1 = 28 = 3 mod 5
    g = P(Q, 1, [((10**5,), 1), ((1,), 2)])
    assert g.evaluate([-1]) == Fraction(-1)


def test_normalisation_with_huge_exponents():
    # over Q the coprimality certificate settles these: it specializes them
    # at sample points, one power per variable, not one product per unit;
    # over F5 every specialization of x1^(10^8) is 0 or 1, the certificate
    # fails, and the remainder sequence runs on rows keyed by degree in x1
    for base, k in ((Q, 10**5), (F5, 10**8)):
        num = P(base, 2, [((k, 1), 1), ((0, 0), 1)])  # x1^k*x2 + 1
        den = P(base, 2, [((k, 0), 1), ((0, 1), 1)])  # x1^k + x2
        rf = RationalFunction.make(num, den)
        assert (rf.num, rf.den) == (num, den)
        assert str(rf) == f"(x1^{k}*x2 + 1)/(x1^{k} + x2)"


def test_sparse_univariate_gcd_allocates_no_dense_row():
    # a dense row of x1^(10^8) + x1 + 1 would hold 10^8 entries; these
    # gcds take one or two steps of the sparse Euclid instead
    k = 10**8
    tracemalloc.start()
    try:
        for base in (Q, F5):
            f = P(base, 1, [((k,), 1), ((1,), 1), ((0,), 1)])
            assert RationalFunction.make(f, f) == RationalFunction.const(base, 1, 1)
            rf = RationalFunction.make(P(base, 1, [((k,), 1), ((1,), 1)]), P(base, 1, [((1,), 1)]))
            assert str(rf) == f"x1^{k - 1} + 1"
            x = P(base, 1, [((1,), 1)])
            two, three = (P(base, 1, [((0,), c)]) for c in (2, 3))
            assert poly_gcd(f * (x + two), f * (x + three)) == f
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@st.composite
def _shared_factor_pairs(draw):
    """(f*h, g*h) in two or three variables with degree at most 4 in each,
    the shared factor h neither constant nor a monomial."""
    base = draw(st.sampled_from([Q, F5, F7]))
    nvars = draw(st.integers(2, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), st.integers(-4, 4))
    f, g, h = (P(base, nvars, draw(st.lists(term, min_size=1, max_size=3))) for _ in range(3))
    assume(not f.is_zero and not g.is_zero and len(h.ints) >= 2)
    return f * h, g * h


@given(_shared_factor_pairs())
@settings(max_examples=100, deadline=None)
def test_remainder_sequence_matches_sympy_gcd(pair):
    sp = pytest.importorskip("sympy")
    a, b = pair
    calls = []
    pseudo_rem = polyfield._pseudo_rem

    def counted(*args):
        calls.append(1)
        return pseudo_rem(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyfield, "_pseudo_rem", counted)
        d = poly_gcd(a, b)
    assert calls  # h is no monomial, so no certificate settles the pair
    base, gens = a.base, sp.symbols(f"x1:{a.nvars + 1}")
    domain = {"modulus": base.p} if base.p else {"domain": "QQ"}

    def to_sympy(f):
        return sp.Poly.from_dict({e: sp.Rational(c.numerator, c.denominator) for e, c in f.terms}, gens, **domain)

    # equal up to a unit: the same polynomial once each is made monic
    assert to_sympy(d).monic() == sp.gcd(to_sympy(a), to_sympy(b)).monic()


_univariate_terms = st.lists(st.tuples(st.integers(0, 12), st.integers(-4, 4)), min_size=1, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q, F5, F7]), st.lists(_univariate_terms, min_size=3, max_size=3))
def test_sparse_univariate_gcd_matches_dense_rows(base, factors):
    a, b, h = (P(base, 1, [((e,), c) for e, c in terms]) for terms in factors)
    assume(not (a * h).is_zero and not (b * h).is_zero)
    expected = poly_gcd(a * h, b * h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyfield, "_DENSE_FILL", 0)  # every row counts as long
        assert poly_gcd(a * h, b * h) == expected


def test_sparse_euclid_powers_its_way_down_a_huge_degree():
    # long division would take 5*10^8 steps; x^(10^9) mod x^2 + 1 is
    # (x^2)^(5*10^8) = 1, so the first remainder is x + 4, coprime to x^2 + 1
    f = P(F5, 1, [((10**9,), 1), ((1,), 1), ((0,), 3)])
    g = P(F5, 1, [((2,), 1), ((0,), 1)])
    assert polyfield._sparse_rem(polyfield._specialised(f, 0), polyfield._specialised(g, 0), 5) == {1: 1, 0: 4}
    assert poly_gcd(f, g) == P(F5, 1, [((0,), 1)])


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([F5, F7]),
    st.lists(st.tuples(st.integers(0, 3000), st.integers(1, 6)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), min_size=1, max_size=4),
)
def test_sparse_remainder_by_powers_matches_long_division(base, a_terms, b_terms):
    p = base.p
    a, b = (polyfield._specialised(P(base, 1, [((e,), c) for e, c in terms]), 0) for terms in (a_terms, b_terms))
    assume(a and b)
    by_powers = polyfield._sparse_rem(a, b, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyfield, "_DENSE_FILL", 0)  # every row counts as long
        assert polyfield._sparse_rem(a, b, p) == by_powers


def _value(f, args):
    """f(args) in canonical form."""
    return RationalFunction.make(*substitute(f, args))


def _reference_substitute(f, args):
    """sum(c * prod(args[i] ** k)), in rational-function arithmetic only."""
    acc = RationalFunction.const(f.base, args[0].nvars, 0)
    for e, c in f.terms:
        term = RationalFunction.const(f.base, args[0].nvars, c)
        for a, k in zip(args, e):
            term = term * a ** k
        acc = acc + term
    return acc


@st.composite
def monomial_args(draw, base, nvars=2):
    """c * x^a / x^b with c != 0, 1 allowed and both sides possibly nontrivial."""
    c = draw(st.sampled_from([1, -1, 2, 3, Fraction(-4, 3)]))
    top = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
    bottom = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nvars))
    return RationalFunction.make(P(base, nvars, [(top, c)]), P(base, nvars, [(bottom, 1)]))


@st.composite
def substitution_cases(draw):
    base = draw(st.sampled_from([Q, F5]))
    nvars = draw(st.integers(min_value=1, max_value=3))
    f = draw(polys(base, nvars=nvars, max_terms=4, max_exp=3))
    args = []
    for _ in range(nvars):
        if draw(st.booleans()):
            args.append(draw(monomial_args(base)))
        else:
            num = draw(polys(base, max_terms=2, max_exp=2))
            den = draw(polys(base, max_terms=2, max_exp=2))
            if den.is_zero:
                den = P(base, 2, [((0, 1), 1), ((0, 0), 2)])
            args.append(RationalFunction.make(num, den))
    return f, args


@given(substitution_cases())
@settings(max_examples=150, deadline=None)
def test_substitute_matches_term_by_term_reference(case):
    f, args = case
    assert _value(f, args) == _reference_substitute(f, args)


def test_substitute_skips_absent_variables_and_zero():
    x = RationalFunction.variable(F5, 2, 0)
    y = RationalFunction.variable(F5, 2, 1)
    f = P(F5, 3, [((2, 0, 0), 3), ((0, 0, 1), 1)])  # 3*X1^2 + X3, X2 absent
    out = _value(f, [x / y, x * x + y, y])
    assert out == RationalFunction.const(F5, 2, 3) * (x / y) ** 2 + y
    assert _value(P(F5, 3, []), [x, y, x]).is_zero
    assert _value(P(Q, 0, [((), 4)]), []) == RationalFunction.const(Q, 0, 4)


def test_substitute_at_perron_sized_exponents():
    x1 = RationalFunction.variable(F5, 2, 0)
    x2 = RationalFunction.variable(F5, 2, 1)
    a1 = RationalFunction.const(F5, 2, 2) * x1 ** 3 / x2 ** 2  # 2*x1^3/x2^2
    a2 = x2 / x1
    f = P(F5, 2, [((10**8, 1), 1), ((0, 2), 3)])  # X1^(10^8)*X2 + 3*X2^2
    out = _value(f, [a1, a2])
    # 2^(10^8) = 1 in F5, so out = x1^(3e8-1)/x2^(2e8-1) + 3*x2^2/x1^2
    assert str(out) == "(x1^300000001 + 3*x2^200000001)/(x1^2*x2^199999999)"
    assert out == _reference_substitute(f, [a1, a2])

    y1 = RationalFunction.variable(Q, 2, 0)
    y2 = RationalFunction.variable(Q, 2, 1)
    g = P(Q, 2, [((4 * 10**8, 0), 1), ((0, 3), -1)])  # X1^(4e8) - X2^3
    out = _value(g, [y1 ** 5 / y2 ** 2, -y2])
    assert str(out) == "(x1^2000000000 + x2^800000003)/(x2^800000000)"


# ---------------------------------------------------------------------------
# the canonical form that the trusted constructor relies on

_FRACTIONS = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.sampled_from([2, 3, 4, 6])),
)


@st.composite
def fraction_polys(draw, base, nvars=2, max_terms=3, max_exp=2):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    return SparsePoly.make(base, nvars, [
        (tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(nvars)),
         draw(_FRACTIONS))
        for _ in range(n)
    ])


def _assert_canonical(r):
    """r is what the validating constructor makes of its own terms."""
    polys_of = (r.num, r.den) if isinstance(r, RationalFunction) else (r,)
    for poly in polys_of:
        assert poly == SparsePoly.make(poly.base, poly.nvars, poly.terms)
        if poly.base.is_rationals:
            assert all(type(c) is Fraction for _, c in poly.terms)
        else:
            assert all(type(c) is int and 0 <= c < poly.base.p for _, c in poly.terms)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_results_are_canonical(data):
    base = data.draw(st.sampled_from([Q, F5, F7]))
    f, g, h = (data.draw(fraction_polys(base)) for _ in range(3))
    out = [
        f + g, f - g, f * g, -f, f ** 2,
        f.map_vars([1, 0], 2), f.map_vars([0, 0], 1), f.map_vars([2, 0], 3),
        hasse_derivative(f, 1), hasse_derivative(f, 2, var=1),
        SparsePoly.const(base, 2, 3), SparsePoly.variable(base, 2, 1),
    ]
    if not g.is_zero:
        out += [poly_divexact(f * g, g), poly_gcd(f * h, g * h), poly_gcd(f, g)]
    if not g.is_zero and not h.is_zero:
        x, y = RationalFunction.make(f, g), RationalFunction.make(g, h)
        out += [
            x, y, x + y, x - y, x * y, x / y, -x, y ** -2, x.map_vars([1, 0], 2),
            RationalFunction.const(base, 2, Fraction(2, 3)), RationalFunction.variable(base, 2, 0),
            _value(f, [x, y]), _value(h, [y, x]),
        ]
    for r in out:
        _assert_canonical(r)
    for point in ([2, 3], [-3, 1]):
        fv, gv = f.evaluate(point), g.evaluate(point)
        assert (f * g).evaluate(point) == base.mul(fv, gv)
        assert (f - g).evaluate(point) == base.sub(fv, gv)


@st.composite
def content_args(draw, nvars=2):
    """Canonical arguments whose numerator or denominator has a non-unit content."""
    num = draw(fraction_polys(Q, nvars=nvars, max_terms=2)).scale(draw(st.sampled_from([2, 3, 4, 9])))
    den = draw(fraction_polys(Q, nvars=nvars, max_terms=2)).scale(draw(st.sampled_from([2, 3, 6])))
    if den.is_zero:
        den = P(Q, nvars, [((1, 0), 9)])
    return RationalFunction.make(num, den)


@given(fraction_polys(Q, max_terms=4, max_exp=2), content_args(), content_args())
@settings(max_examples=100, deadline=None)
def test_integer_substitute_matches_reference(f, a, b):
    assert _value(f, [a, b]) == _reference_substitute(f, [a, b])


def test_integer_substitute_with_fractional_coefficients():
    x = RationalFunction.variable(Q, 2, 0)
    y = RationalFunction.variable(Q, 2, 1)
    f = P(Q, 2, [((2, 1), Fraction(-4, 3)), ((0, 2), Fraction(5, 6)), ((1, 0), 1)])
    a = RationalFunction.const(Q, 2, 4) * x ** 2 / (RationalFunction.const(Q, 2, 9) * y)
    b = (RationalFunction.const(Q, 2, 6) * x + RationalFunction.const(Q, 2, 4)) / (
        RationalFunction.const(Q, 2, 3) * y + RationalFunction.const(Q, 2, 9)
    )
    assert str(a) == "(4*x1^2)/(9*x2)" and str(b) == "(6*x1 + 4)/(3*x2 + 9)"
    out = _value(f, [a, b])
    assert out == _reference_substitute(f, [a, b])
    assert out.num.terms[0][1].denominator == 1


def test_substitute_rejects_non_canonical_arguments():
    half = P(Q, 2, [((1, 0), Fraction(1, 2))])
    arg = RationalFunction(half, SparsePoly.const(Q, 2, 1))  # not made by make
    with pytest.raises(PreconditionError):
        _value(P(Q, 1, [((1,), 1)]), [arg])


# ---------------------------------------------------------------------------
# the fast paths of RationalFunction.make, map_vars and poly_divexact


def _generic_make(num, den):
    """RationalFunction.make through poly_gcd and poly_divexact alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyfield, "_make_dense", lambda num, den: None)
        return RationalFunction.make(num, den)


_small_coeffs = st.sampled_from([1, -1, 2, -3, 4, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _univariate_factor(draw, base, nonconstant=False):
    terms = draw(st.lists(st.tuples(st.integers(0, 5), _small_coeffs), min_size=1, max_size=3))
    f = P(base, 1, [((e,), c) for e, c in terms])
    assume(not f.is_zero and not (nonconstant and f.is_constant))
    return f


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([Q, F5, F7]), st.integers(0, 3), st.integers(0, 3))
def test_dense_make_matches_the_generic_path(data, base, i, j):
    # a planted common factor h and power-of-x offsets on both sides
    h = data.draw(_univariate_factor(base, nonconstant=True))
    f, g = data.draw(_univariate_factor(base)), data.draw(_univariate_factor(base))
    x = P(base, 1, [((1,), 1)])
    num, den = x**i * h * f if i else h * f, x**j * h * g if j else h * g
    assume(not (num.is_constant or den.is_constant))
    assert polyfield._make_dense(num, den) is not None
    assert RationalFunction.make(num, den) == _generic_make(num, den)


def test_dense_make_keeps_sparse_rows_on_the_generic_path():
    # 4 terms up to degree 1001 are more than _DENSE_FILL entries per term
    f = P(F5, 1, [((1000,), 1), ((0,), 1)])
    g = P(F5, 1, [((1,), 1), ((0,), 1)])
    assert polyfield._make_dense(f * g, g * g) is None
    assert RationalFunction.make(f * g, g * g) == RationalFunction.make(f, g)


@st.composite
def _ratfuns(draw, base, nvars):
    num = draw(polys(base, nvars=nvars, max_terms=3, max_exp=3))
    den = draw(polys(base, nvars=nvars, max_terms=3, max_exp=3))
    assume(not den.is_zero)
    return RationalFunction.make(num, den)


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([Q, F5, F7]), st.integers(1, 3), st.integers(0, 2))
def test_injective_map_vars_matches_make(data, base, nvars, extra):
    rf = data.draw(_ratfuns(base, nvars))
    # a permutation of the variables, then an embedding into more of them
    mapping = data.draw(st.permutations(range(nvars + extra)))[:nvars]
    want = RationalFunction.make(
        rf.num.map_vars(mapping, nvars + extra), rf.den.map_vars(mapping, nvars + extra)
    )
    assert rf.map_vars(mapping, nvars + extra) == want


def test_non_injective_map_vars_still_normalises():
    for base in (Q, F5):
        rf = RationalFunction.make(
            P(base, 2, [((1, 0), 1), ((0, 0), -1)]), P(base, 2, [((0, 1), 1), ((0, 0), -1)])
        )
        assert rf.map_vars([0, 0], 1) == RationalFunction.const(base, 1, 1)
    # a renaming that moves den's leading term onto a negative coefficient
    rf = RationalFunction.make(P(Q, 2, [((1, 0), 1)]), P(Q, 2, [((1, 0), 1), ((0, 2), -1)]))
    assert str(rf.map_vars([1, 0], 2)) == "(-x2)/(x1^2 - x2)"
    rf = RationalFunction.make(P(F5, 2, [((1, 0), 1)]), P(F5, 2, [((1, 0), 1), ((0, 2), 3)]))
    assert str(rf.map_vars([1, 0], 2)) == "(2*x2)/(x1^2 + 2*x2)"


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([Q, F5, F7]), polys(Q, nvars=2), st.tuples(st.integers(0, 3), st.integers(0, 3)),
       st.sampled_from([1, 3, Fraction(-2, 3)]))
def test_divexact_by_a_monomial(base, f, shift, c):
    f = P(base, 2, f.terms)
    m = P(base, 2, [(shift, c)])
    assert poly_divexact(f * m, m) == f
    if any(x < s for e, _ in f.terms for x, s in zip(e, shift)):
        with pytest.raises(PreconditionError, match="polynomial division is not exact"):
            poly_divexact(f, m)
    else:
        assert poly_divexact(f, m) * m == f

"""Exact real scalars: canonical form and sign decisions."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uniformizer.surd import SurdScalar, is_square_free, root_bounds, square_free_part, surd_sign


def test_square_free_part_examples():
    assert square_free_part(1) == (1, 1)
    assert square_free_part(2) == (1, 2)
    assert square_free_part(12) == (2, 3)
    assert square_free_part(50) == (5, 2)
    assert is_square_free(10)
    assert not is_square_free(12)


def _trial_division(n):
    """(s, f) by trial division up to sqrt(n), the plain definition."""
    s, f, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            f *= d
        d += 1
    return s, f * n


@given(st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_square_free_part_matches_trial_division(n):
    assert square_free_part(n) == _trial_division(n)


# what is left past the cube root is 1, a prime, two primes, or a prime squared
@pytest.mark.parametrize("n, expected", [
    (999983**2, (999983, 1)),
    (999983**2 * 12, (999983 * 2, 3)),
    (999983 * 999979, (1, 999983 * 999979)),
    (999983**2 * 999979, (999983, 999979)),
    (999983**3, (999983, 999983)),
    (2**63 - 25, (1, 2**63 - 25)),  # a prime
    ((2**31 - 1) * (2**31 - 19), (1, (2**31 - 1) * (2**31 - 19))),
    (3037000493**2, (3037000493, 1)),
    (2**62, (2**31, 1)),
])
def test_square_free_part_past_the_cube_root(n, expected):
    s, f = expected
    assert s * s * f == n
    assert square_free_part(n) == expected


def test_canonical_merging():
    # sqrt(8) = 2*sqrt(2), so sqrt(2) + sqrt(8) = 3*sqrt(2)
    s = SurdScalar.make([(1, 2), (1, 8)])
    assert s == SurdScalar.make([(3, 2)])
    # rational parts collapse onto d = 1
    s = SurdScalar.make([(2, 1), (1, 4)])
    assert s == SurdScalar.rational(4)


def test_zero_is_syntactic():
    s = SurdScalar.make([(1, 2), (-1, 8), (1, 2)])
    assert s.terms == () and s == SurdScalar()
    assert s.sign() == 0


def test_sign_examples():
    assert SurdScalar.make([(1, 2)]).sign() == 1
    assert SurdScalar.make([(-1, 2)]).sign() == -1
    # 3 - 2*sqrt(2) > 0 since 9 > 8
    assert SurdScalar.make([(3, 1), (-2, 2)]).sign() == 1
    # 1 + sqrt(2) - sqrt(6) < 0: 1 + 1.414 - 2.449
    s = SurdScalar.make([(1, 1), (1, 2), (-1, 6)])
    assert s.sign() == -1
    # three-term near-cancellation: sqrt(2) + sqrt(3) - sqrt(10) < 0
    s = SurdScalar.make([(1, 2), (1, 3), (-1, 10)])
    assert s.sign() == -1


_COEFF = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
_RADICAND = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13])


@st.composite
def surds(draw, max_terms=3):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    pairs = [(draw(_COEFF), draw(_RADICAND)) for _ in range(n)]
    return SurdScalar.make(pairs)


@given(surds())
@settings(max_examples=200)
def test_sign_matches_float_oracle(s):
    # the float value is an independent estimate; only trust it away from 0
    approx = sum(float(q) * math.sqrt(d) for q, d in s.terms)
    if abs(approx) > 1e-6:
        assert s.sign() == (1 if approx > 0 else -1)


# ---------------------------------------------------------------------------
# the integer kernel, against oracles that do not use it

PELL = [(99, 70), (114243, 80782)]  # a*a - 2*b*b == 1: a - b*sqrt(2) is tiny


def test_kernel_pell_near_ties():
    for a, b in PELL:
        by_squares = 1 if a * a > 2 * b * b else -1
        assert surd_sign([a, -b], [1, 2]) == by_squares
        assert surd_sign([-a, b], [1, 2]) == -by_squares
        assert SurdScalar.make([(a, 1), (-b, 2)]).sign() == by_squares
        # (a - b*sqrt(2))/7 written with sqrt(8) = 2*sqrt(2)
        s = SurdScalar.make([(Fraction(a, 7), 1), (Fraction(-b, 14), 8)])
        assert s.sign() == by_squares


def test_kernel_refines_past_the_filter():
    # (1 + sqrt(2))**n = a + b*sqrt(2) with a*a - 2*b*b == (-1)**n, so
    # |a - b*sqrt(2)| = 1/(a + b*sqrt(2)) falls far below 2**-63 * (a + b),
    # and its sign alternates
    a, b = 1, 1
    for _ in range(120):
        by_squares = 1 if a * a > 2 * b * b else -1
        assert surd_sign([a, -b], [1, 2]) == by_squares
        assert surd_sign([-a, b, 0], [1, 2, 3]) == -by_squares
        a, b = a + 2 * b, a + b


def test_kernel_beyond_float_range():
    big = 10**400
    assert surd_sign([big * 99, -big * 70], [1, 2]) == 1
    assert surd_sign([-big * 99, big * 70], [1, 2]) == -1
    # a Pell tie one unit off at this scale: big*99 - big*70*sqrt2 + 1 > 0
    assert surd_sign([big * 99 + 1, -big * 70], [1, 2]) == 1
    assert surd_sign([big * 114243, -big * 80782, 1], [1, 2, 3]) == 1
    assert surd_sign([-big * 114243, big * 80782, 1], [1, 2, 3]) == -1


def test_kernel_exact_exits_and_given_roots():
    assert surd_sign([], []) == 0
    assert surd_sign([0, 0], [2, 3]) == 0
    assert surd_sign([0, 3, 1], [1, 2, 5]) == 1
    assert surd_sign([-1, 0, -4], [1, 2, 5]) == -1
    assert surd_sign([3, -2], [1, 2], root_bounds([1, 2])) == 1


_SQUARE_FREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23]


def _decimal_value(coeffs, radicands):
    with localcontext() as ctx:
        ctx.prec = 100
        return sum(Decimal(c) * Decimal(d).sqrt() for c, d in zip(coeffs, radicands))


@st.composite
def near_ties(draw):
    """3- and 4-term sums whose last coefficient nearly cancels the rest."""
    k = draw(st.integers(min_value=3, max_value=4))
    radicands = draw(st.lists(st.sampled_from(_SQUARE_FREE), min_size=k, max_size=k, unique=True))
    coeffs = [draw(st.integers(min_value=-10**12, max_value=10**12)) for _ in range(k - 1)]
    with localcontext() as ctx:
        ctx.prec = 100
        head = _decimal_value(coeffs, radicands)
        last = int((-head / Decimal(radicands[-1]).sqrt()).to_integral_value())
    coeffs.append(last + draw(st.integers(min_value=-2, max_value=2)))
    return coeffs, radicands


@given(near_ties())
@settings(max_examples=300)
def test_kernel_matches_decimal_oracle(case):
    coeffs, radicands = case
    value = _decimal_value(coeffs, radicands)
    if abs(value) > Decimal("1e-80"):
        assert surd_sign(coeffs, radicands) == (1 if value > 0 else -1)

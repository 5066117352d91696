"""Differential tests of the exact kernels several layers share.

One fraction-free elimination gives ranks, determinants and unimodular
inverses; one square-and-multiply loop gives the powers of polynomials,
rational functions and series; one renderer prints every signed sum.
Each is checked here against an independent reference: sympy for the
matrices, repeated products for the powers, the parsers for the printers.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from uniformizer.errors import PreconditionError
from uniformizer.expr import parse_element, parse_series
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly, poly_str
from uniformizer.series import TruncatedSeries, series_str
from uniformizer.surd import SurdScalar
from uniformizer.valuegroup import GroupOrder, gauss_jordan, int_det, unimodular_inverse

Q = QQ()
F5 = GF(5)

# ---------------------------------------------------------------------------
# elimination against sympy


@st.composite
def int_matrices(draw, square=True):
    """Small integer matrices, about a third of them with a repeated
    combination of rows, so that rank deficits are common."""
    n = draw(st.integers(min_value=1, max_value=4))
    ncols = n if square else draw(st.integers(min_value=1, max_value=4))
    entry = st.integers(min_value=-3, max_value=3)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(n)]
    if n > 1 and draw(st.integers(min_value=0, max_value=2)) == 0:
        a, b = draw(entry), draw(entry)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[n // 2])]
    return rows


@st.composite
def unimodular_matrices(draw):
    """Products of elementary integer matrices and sign flips."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            k = draw(st.integers(min_value=-3, max_value=3))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    return m


def _fractions(sp_matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in sp_matrix.row(i)] for i in range(sp_matrix.rows)]


@given(int_matrices(square=False))
@settings(max_examples=200, deadline=None)
def test_gauss_jordan_matches_sympy_rref(rows):
    sp = pytest.importorskip("sympy")
    ncols = len(rows[0])
    rank, _, reduced = gauss_jordan(rows, ncols)
    rref, _ = sp.Matrix(rows).rref()
    assert rank == sp.Matrix(rows).rank()
    # the pivot rows over their common pivot are the reduced row echelon form
    pivot = reduced[0][next(j for j in range(ncols) if reduced[0][j])] if rank else 1
    assert [[Fraction(x, pivot) for x in row] for row in reduced] == _fractions(rref)


@given(int_matrices())
@settings(max_examples=200, deadline=None)
def test_int_det_and_unimodular_inverse_match_sympy(rows):
    sp = pytest.importorskip("sympy")
    m = sp.Matrix(rows)
    det = int(m.det())
    assert int_det(rows) == det
    if det in (1, -1):
        assert unimodular_inverse(rows) == [[int(x) for x in row] for row in m.inv().tolist()]
    else:
        message = "matrix is singular" if det == 0 else "matrix is not unimodular"
        with pytest.raises(PreconditionError, match=message):
            unimodular_inverse(rows)


@given(unimodular_matrices())
@settings(max_examples=100, deadline=None)
def test_unimodular_inverse_of_unimodular_matrices(rows):
    sp = pytest.importorskip("sympy")
    inv = unimodular_inverse(rows)
    assert int_det(rows) in (1, -1)
    assert sp.Matrix(rows) * sp.Matrix(inv) == sp.eye(len(rows))


@given(st.lists(
    st.lists(st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                       st.sampled_from([1, 2, 3, 5, 8])), max_size=3),
    min_size=1, max_size=4,
))
@settings(max_examples=150, deadline=None)
def test_is_independent_matches_sympy_rank(pairs):
    """A block of positive weights is refused as linearly dependent exactly
    when sympy's rank of their coefficient matrix falls short."""
    sp = pytest.importorskip("sympy")
    weights = [SurdScalar.make(p) for p in pairs]
    assume(all(w.terms for w in weights))
    # a weight and its negative span the same line
    weights = [w if w.sign() > 0 else SurdScalar.make((-q, d) for q, d in w.terms) for w in weights]
    radicands = sorted({d for w in weights for _, d in w.terms})
    rows = [[sp.Rational(0)] * len(radicands) for _ in weights]
    for row, w in zip(rows, weights):
        for q, d in w.terms:
            row[radicands.index(d)] = sp.Rational(q.numerator, q.denominator)
    if sp.Matrix(rows).rank() == len(weights):
        assert GroupOrder((tuple(weights),)).ngens == len(weights)
    else:
        with pytest.raises(PreconditionError, match="linearly dependent"):
            GroupOrder((tuple(weights),))


def test_elimination_edge_cases():
    assert int_det([]) == 1 and unimodular_inverse([]) == []
    assert int_det([[0, 1], [1, 0]]) == -1
    assert unimodular_inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert gauss_jordan([[0, 0], [0, 0]], 2)[0] == 0


@pytest.mark.parametrize("entry", [Fraction(3, 2), Fraction(1), 1.0, "1"])
def test_elimination_rejects_entries_that_are_not_ints(entry):
    # int() would truncate 3/2 to 1 and answer for [[1, 0], [0, 1]]
    rows = [[entry, 0], [0, 1]]
    with pytest.raises(PreconditionError, match="not an int"):
        int_det(rows)
    with pytest.raises(PreconditionError, match="not an int"):
        unimodular_inverse(rows)


# ---------------------------------------------------------------------------
# powers against repeated products


def _repeated(x, n, one):
    out = one
    for _ in range(n):
        out = out * x
    return out


@st.composite
def small_polys(draw, base, nvars=2):
    terms = [
        (tuple(draw(st.integers(0, 2)) for _ in range(nvars)),
         draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return SparsePoly.make(base, nvars, terms)


@given(st.sampled_from([Q, F5]), st.data())
@settings(max_examples=40, deadline=None)
def test_poly_and_ratfun_powers_match_repeated_products(base, data):
    f = data.draw(small_polys(base))
    g = data.draw(small_polys(base).filter(lambda g: not g.is_zero))
    r = RationalFunction.make(f, g)
    one_p = SparsePoly.const(base, 2, 1)
    one_r = RationalFunction.const(base, 2, 1)
    for n in range(7):
        assert f ** n == _repeated(f, n, one_p)
        assert r ** n == _repeated(r, n, one_r)
        if not r.is_zero:
            assert r ** -n == one_r / _repeated(r, n, one_r)


@given(st.sampled_from([Q, F5]), st.data())
@settings(max_examples=60, deadline=None)
def test_series_powers_match_repeated_products(base, data):
    coeffs = data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=5))
    offset = data.draw(st.integers(min_value=-2, max_value=2))
    precision = data.draw(st.integers(min_value=offset, max_value=offset + 6))
    s = TruncatedSeries.make(base, offset, coeffs, precision)
    assert s ** 0 == TruncatedSeries.constant(base, 1, precision)
    for n in range(1, 7):
        assert s ** n == _repeated(s, n - 1, s)


# ---------------------------------------------------------------------------
# printers against the parsers

coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@given(st.sampled_from([Q, F5]), st.data())
@settings(max_examples=80, deadline=None)
def test_printed_polynomials_reparse(base, data):
    names = ("x", "y", "z")
    terms = data.draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * 3), coefficients), max_size=5
    ))
    if base.p:
        terms = [(e, c) for e, c in terms if c.denominator % base.p]
    f = SparsePoly.make(base, 3, terms)
    assert parse_element(poly_str(f, names), base, names) == RationalFunction.from_poly(f)


@given(st.sampled_from([Q, F5]), st.data())
@settings(max_examples=80, deadline=None)
def test_printed_series_reparse(base, data):
    coeffs = data.draw(st.lists(coefficients, max_size=6))
    if base.p:
        coeffs = [c for c in coeffs if c.denominator % base.p]
    offset = data.draw(st.integers(min_value=-3, max_value=3))
    precision = data.draw(st.integers(min_value=max(offset, 0), max_value=offset + 8))
    s = TruncatedSeries.make(base, offset, coeffs, precision)
    assert parse_series(series_str(s), base) == s


def test_surd_text():
    assert str(SurdScalar()) == "0"
    # terms print in their stored order: by coefficient, then radicand
    assert str(SurdScalar.make([(1, 1), (-1, 2)])) == "-sqrt(2) + 1"
    assert str(SurdScalar.make([(2, 1), (1, 3), (Fraction(1, 2), 2)])) == "1/2*sqrt(2) + sqrt(3) + 2"
    assert str(SurdScalar.make([(Fraction(-3, 2), 1), (2, 3)])) == "-3/2 + 2*sqrt(3)"
    assert str(SurdScalar.make([(-1, 1), (-2, 2)])) == "-2*sqrt(2) - 1"
    assert str(SurdScalar.make([(-1, 5)])) == "-sqrt(5)"
    assert str(SurdScalar.make([(Fraction(1, 3), 8)])) == "2/3*sqrt(2)"

"""Differential tests of the dense univariate rows against sympy's Poly
and against schoolbook references.

Over ZZ and the prime fields a row is the polynomial itself; over QQ it is
a row of integer numerators over one denominator, as the callers keep it,
so a product's denominator is the product of the denominators and a gcd is
read monic.
"""

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uniformizer import dense
from uniformizer.errors import PreconditionError
from uniformizer.fields import clear_denominators

sp = pytest.importorskip("sympy")
X = sp.Symbol("x")

DOMAINS = [("ZZ", 0), ("QQ", 0), ("GF(5)", 5), ("GF(7)", 7)]


@st.composite
def rows(draw, domain, nonzero=False):
    """(row, den) of degree at most 8: den is 1 except over QQ."""
    name, p = domain
    if name == "QQ":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        entry = st.integers(-9, 9)
    values = draw(st.lists(entry, min_size=1 if nonzero else 0, max_size=9))
    if nonzero:
        values[-1] = values[-1] or 1
    if name == "QQ":
        row, den = clear_denominators(values)
    else:
        row, den = [c % p for c in values] if p else values, 1
    row = dense.trim(row)
    if nonzero and not row:
        row = [1]
    return row, den


def _poly(domain, row, den=1):
    name, p = domain
    coeffs = [sp.Rational(c, den) for c in reversed(row)] or [0]
    if p:
        return sp.Poly(coeffs, X, modulus=p)
    return sp.Poly(coeffs, X, domain=name)


def _values(domain, poly):
    """The coefficients of a sympy Poly, lowest degree first, trimmed."""
    p = domain[1]
    if p:
        return dense.trim([int(c) % p for c in reversed(poly.all_coeffs())])
    return dense.trim([Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())])


@pytest.mark.parametrize("domain", DOMAINS, ids=[d[0] for d in DOMAINS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_division_and_horner_match_sympy(domain, data):
    name, p = domain
    a, da = data.draw(rows(domain))
    b, db = data.draw(rows(domain, nonzero=True))
    r = data.draw(rows(domain))[0]
    pa, pb = _poly(domain, a, da), _poly(domain, b, db)

    ab = dense.mul(a, b, p)
    want = _values(domain, pa * pb)
    assert (ab if p else [Fraction(c, da * db) for c in ab]) == want
    # exact division undoes the product, denominators aside
    assert dense.divexact(ab, b, p) == a

    # a row plus a remainder divides exactly when sympy divides it exactly,
    # in F_p[X] or, for the integer rows of ZZ and QQ, in Z[X]
    c = dense.add(ab, r, p)
    ring = domain if p else ("ZZ", 0)
    try:
        quo = _poly(ring, c).exquo(_poly(ring, b), auto=False)
    except sp.ExactQuotientFailed:
        with pytest.raises(PreconditionError, match="not exact"):
            dense.divexact(c, b, p)
    else:
        assert dense.divexact(c, b, p) == _values(ring, quo)


@pytest.mark.parametrize("domain", DOMAINS, ids=[d[0] for d in DOMAINS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gcd_matches_sympy(domain, data):
    """Monic over F_p; primitive with a positive leading coefficient over Z;
    over Q the monic gcd, read from the primitive gcd of the numerators."""
    name, p = domain
    (a, da), (b, db), (h, _) = (data.draw(rows(domain)) for _ in range(3))
    a, b = dense.mul(a, h, p), dense.mul(b, h, p)
    got = dense.gcd(a, b, p)
    want = _poly(domain, a).gcd(_poly(domain, b))
    if p:
        assert got == _values(domain, want)
        assert not got or got[-1] == 1
        return
    if want.is_zero:
        assert got == []
        return
    prim = want.primitive()[1] if name == "ZZ" else want.monic()
    if prim.LC() < 0:
        prim = -prim
    if name == "ZZ":
        assert got == [int(c) for c in _values(domain, prim)]
    else:
        assert [Fraction(c, got[-1]) for c in got] == _values(domain, prim)
    assert got[-1] > 0


# ---------------------------------------------------------------------------
# the truncated product and the Newton inverse against schoolbook references

P61 = (1 << 61) - 1
P63 = 9223372036854775783  # the largest prime BaseField accepts


def _schoolbook(a, b, n, p):
    """The coefficients below x^n of a * b, one sum per coefficient, trimmed."""
    full = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(n)]
    return dense.trim([c % p for c in full] if p else full)


_signed_entries = st.integers(-(10**20), 10**20) | st.integers(-3, 3)


@given(
    st.lists(_signed_entries, min_size=1, max_size=dense._SCHOOLBOOK),
    st.lists(_signed_entries, max_size=30),
    st.integers(min_value=1, max_value=40),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_short_product_matches_kronecker(short, other, n, swap):
    """A shorter operand of at most _SCHOOLBOOK entries takes the schoolbook
    loop; with the cut-off at 0 every product packs, so the two must agree."""
    a, b = (other, short) if swap else (short, other)
    got = dense.mul(a, b, 0, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_SCHOOLBOOK", 0)
        assert got == dense.mul(a, b, 0, n)
    assert got == _schoolbook(a, b, n, 0)


@st.composite
def residue_rows(draw, p, max_size=30):
    """Rows of residues, the largest residue and zero runs among them."""
    entry = st.integers(0, p - 1) | st.just(p - 1) | st.just(0)
    return draw(st.lists(entry, max_size=max_size))


@given(st.sampled_from([2, 5, P61, P63]), st.data(), st.integers(min_value=1, max_value=40))
@settings(max_examples=200, deadline=None)
def test_truncated_product_over_fp_matches_schoolbook(p, data, n):
    """Residues are nonnegative, so the packed product needs no bias; both
    the loop and the packed path reduce to the schoolbook residues."""
    a, b = data.draw(residue_rows(p)), data.draw(residue_rows(p))
    want = _schoolbook(a, b, n, p)
    assert dense.mul(a, b, p, n) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_SCHOOLBOOK", 0)
        assert dense.mul(a, b, p, n) == want
    assert dense.mul(a, b, p) == _schoolbook(a, b, len(a) + len(b), p)


def _schoolbook_inverse(a, n, p):
    """The coefficients below x^n of 1/a, one recurrence step each: Fractions
    over Q, residues over F_p."""
    inv0 = pow(a[0], -1, p) if p else Fraction(1, a[0])
    out = [inv0] + [0] * (n - 1)
    for k in range(1, n):
        acc = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out[k] = -inv0 * acc % p if p else -inv0 * acc
    return dense.trim(out)


INVERSE_FIELDS = [0, 5, P61]


@given(st.sampled_from(INVERSE_FIELDS), st.data(), st.integers(min_value=-3, max_value=40))
@settings(max_examples=200, deadline=None)
def test_newton_inverse_matches_schoolbook(p, data, n):
    if p:
        a = data.draw(residue_rows(p, max_size=20))
    else:
        a = data.draw(st.lists(st.integers(-(10**12), 10**12) | st.integers(-3, 3), max_size=20))
    if not a or not (a[0] % p if p else a[0]):
        # the empty row too: no row without a constant term has an inverse
        with pytest.raises(ZeroDivisionError):
            dense.inverse(a, n, p)
        return
    g, d = dense.inverse(a, n, p)
    if n <= 0:
        assert (g, d) == ([], 1)
        return
    assert d > 0 and (not g or g[-1])
    if p:
        assert d == 1 and all(0 <= c < p for c in g)
        assert g == _schoolbook_inverse(a, n, p)
    else:
        assert math.gcd(d, *g) == 1
        assert [Fraction(c, d) for c in g] == _schoolbook_inverse(a, n, 0)
    # the product with a is 1 below x^n, over d
    assert _schoolbook(a, g, n, p) == [d % p if p else d]


QUOTIENT_FIELDS = [0, 2, 5, P61, P63]


def _quotient_rows(draw, p, min_size, max_size):
    if p:
        return draw(residue_rows(p, max_size=max_size).filter(lambda r: len(r) >= min_size))
    entry = st.integers(-(10**12), 10**12) | st.integers(-3, 3)
    return draw(st.lists(entry, min_size=min_size, max_size=max_size))


@pytest.mark.parametrize("schoolbook", [0, dense._SCHOOLBOOK], ids=["packed", "loop"])
@given(st.sampled_from(QUOTIENT_FIELDS), st.data(), st.integers(min_value=-3, max_value=30))
@settings(max_examples=150, deadline=None)
def test_quotient_matches_the_inverse_product(schoolbook, p, data, n):
    """Long division gives what the Newton inverse times the numerator gives,
    with the reference's products on either side of the schoolbook cut: the
    same residues over F_p, the same fractions over Q."""
    a = dense.trim(_quotient_rows(data.draw, p, 0, 20))
    b = _quotient_rows(data.draw, p, 1, 12)
    b[0] = b[0] or 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_SCHOOLBOOK", schoolbook)
        q, d = dense.quotient(a, b, n, p)
        g, e = dense.inverse(b, n, p)
        want = dense.mul(a, g, p, n) if n > 0 else []
    if n <= 0 or not a:
        assert (q, d) == ([], 1) and want == []
        return
    assert d > 0 and (not q or q[-1])
    if p:
        assert d == 1 and all(0 <= c < p for c in q)
        assert q == want
    else:
        assert math.gcd(d, *q) == 1
        assert [Fraction(c, d) for c in q] == [Fraction(c, e) for c in want]
    # the divisor times the quotient is the numerator below x^n, over d
    assert _schoolbook(b, q, n, p) == dense.trim([c * d % p if p else c * d for c in a[:n]])


@given(st.sampled_from(QUOTIENT_FIELDS), st.data(), st.integers(min_value=-3, max_value=12))
@settings(max_examples=100, deadline=None)
def test_quotient_by_a_row_without_constant_term_raises(p, data, n):
    a = _quotient_rows(data.draw, p, 0, 6)
    b = _quotient_rows(data.draw, p, 0, 6)
    if b:
        b[0] = data.draw(st.sampled_from([0, p]))  # zero, or p unreduced
    with pytest.raises(ZeroDivisionError):
        dense.quotient(a, b, n, p)


def test_quotient_by_a_one_entry_row_only_scales():
    # dividing 1 + 3x + O(x^n) by a constant allocates no row of n entries
    n = 10**7
    tracemalloc.start()
    try:
        over_q = dense.quotient([1, 3], [-1], n, 0)
        over_f5 = dense.quotient([1, 3, 0, 4], [3], n, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert over_q == ([-1, -3], 1)
    assert over_f5 == ([2, 1, 0, 3], 1)  # 1/3 = 2 in F5
    assert dense.quotient([1, 3], [-4], 5, 0) == ([-1, -3], 4)
    assert dense.quotient([2, 0, 4, 6], [-2], 3, 0) == ([-1, 0, -2], 1)
    assert dense.quotient([2, 0, 0, 6], [2], 3, 5) == ([1], 1)


"""The integer storage of TruncatedSeries: one form per series, whatever built it.

A series is t^offset * row / denom + O(t^precision), with row a tuple of
integers whose first and last entries are nonzero and below the precision,
and denom positive and coprime to them (residues over 1 over F_p).  These
properties draw series over Q and F5 and check the form, and ``coeffs``,
against a scalar reference that multiplies and adds lists of canonical
scalars.
"""

import copy
import math
import pickle
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from uniformizer.fields import GF, QQ
from uniformizer.polyfield import SparsePoly
from uniformizer.series import TruncatedSeries, eval_poly_at_series, hensel_lift_root

Q = QQ()
F5 = GF(5)
_BASES = st.sampled_from([Q, F5])
# denominators stay below 5, so every fraction is a scalar of F5
_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def scalar_series(draw, base, max_len=8):
    """(offset, canonical scalars, precision), zero runs and a cut included."""
    scalars = [base.coerce(c) for c in draw(st.lists(_FRACTIONS | st.just(Fraction(0)), max_size=max_len))]
    offset = draw(st.integers(min_value=-2, max_value=3))
    precision = offset + draw(st.integers(min_value=-1, max_value=len(scalars) + 2))
    return offset, scalars, precision


def _ref(base, offset, scalars, precision):
    """(offset, coeffs) of the canonical series, trimmed on scalars."""
    known = {offset + i: c for i, c in enumerate(scalars) if c and offset + i < precision}
    if not known:
        return 0, ()
    lo, hi = min(known), max(known)
    return lo, tuple(known.get(k, base.zero) for k in range(lo, hi + 1))


def _at(s, k):
    return s.coeffs[k - s.offset] if s.offset <= k < s.offset + len(s.coeffs) else s.base.zero


def _ref_mul(a, b):
    """(offset, scalars, precision) of a * b by the schoolbook product."""
    base = a.base
    low_a = a.offset if a.row else a.precision
    low_b = b.offset if b.row else b.precision
    prec = min(a.precision + low_b, b.precision + low_a)
    lo = a.offset + b.offset
    acc = [base.zero] * max(0, prec - lo)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < len(acc):
                acc[i + j] = base.add(acc[i + j], base.mul(x, y))
    return lo, acc, prec


def _ref_add(a, b, sign=1):
    base = a.base
    prec = min(a.precision, b.precision)
    lo = min(a.offset if a.row else a.precision, b.offset if b.row else b.precision, prec)
    k = base.coerce(sign)
    return lo, [base.add(_at(a, e), base.mul(k, _at(b, e))) for e in range(lo, prec)], prec


def _ref_inverse(s):
    base, o = s.base, s.offset
    u = [_at(s, o + i) for i in range(s.precision - o)]
    inv = [base.inv(u[0])]
    for k in range(1, len(u)):
        acc = base.zero
        for i in range(1, k + 1):
            acc = base.add(acc, base.mul(u[i], inv[k - i]))
        inv.append(base.neg(base.mul(inv[0], acc)))
    return -o, inv, s.precision - 2 * o


def _assert_canonical(s):
    assert type(s.row) is tuple and all(type(c) is int for c in s.row)
    assert type(s.denom) is int and s.denom > 0
    if not s.row:
        assert (s.offset, s.denom) == (0, 1)
    else:
        assert s.row[0] and s.row[-1] and s.offset + len(s.row) <= s.precision
    if s.base.p:
        assert s.denom == 1 and all(0 <= c < s.base.p for c in s.row)
    else:
        assert math.gcd(s.denom, *s.row) == 1
        assert all(type(c) is Fraction for c in s.coeffs)


def _assert_is(s, ref):
    """s is canonical, equals make of the reference, and reads its scalars."""
    offset, scalars, precision = ref
    _assert_canonical(s)
    want = TruncatedSeries.make(s.base, offset, scalars, precision)
    assert s == want and s._key == want._key and hash(s) == hash(want)
    assert (s.offset, s.coeffs, s.precision) == (*_ref(s.base, offset, scalars, precision), precision)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_every_construction_path_gives_one_form(data):
    base = data.draw(_BASES)
    ra, rb = data.draw(scalar_series(base)), data.draw(scalar_series(base))
    a, b = TruncatedSeries.make(base, *ra), TruncatedSeries.make(base, *rb)
    _assert_is(a, ra)
    _assert_is(b, rb)
    _assert_is(a * b, _ref_mul(a, b))
    _assert_is(a + b, _ref_add(a, b))
    _assert_is(a - b, _ref_add(a, b, -1))
    _assert_is(-a, (a.offset, [base.neg(c) for c in a.coeffs], a.precision))
    _assert_is(a - a, (0, [], a.precision))
    cut = data.draw(st.integers(min_value=a.precision - 4, max_value=a.precision))
    _assert_is(a.truncate(cut), (a.offset, list(a.coeffs), cut))
    k = data.draw(st.sampled_from([1, 2, -3, Fraction(1, 2)]))
    _assert_is(a.scale(k), (a.offset, [base.mul(base.coerce(k), c) for c in a.coeffs], a.precision))
    if a.row:
        _assert_is(a.inverse(), _ref_inverse(a))
        # a product that cancels to a unit: its integers shrink to the canonical form
        _assert_is(a * a.inverse(), _ref_mul(a, a.inverse()))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_evaluation_and_hensel_give_the_same_form(data):
    base = data.draw(_BASES)
    args = [TruncatedSeries.make(base, *data.draw(scalar_series(base))) for _ in range(2)]
    terms = data.draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), _FRACTIONS), max_size=4))
    f = SparsePoly.make(base, 2, [((i, j), c) for i, j, c in terms])
    precision = data.draw(st.integers(min_value=1, max_value=8))
    out = eval_poly_at_series(f, args, precision)
    # the same value, term by term, through products and sums of made series
    acc = TruncatedSeries.zero(base, precision)
    for (i, j), c in f.terms:
        term = TruncatedSeries.constant(base, c, precision)
        for s, k in ((args[0], i), (args[1], j)):
            for _ in range(k):
                term = term * s
        acc = acc + term
    _assert_is(out, (acc.offset, list(acc.coeffs), acc.precision))

    # X^2 - r^2 - c t over Q and F5 with the simple residue root r
    r, c = data.draw(st.sampled_from([1, 2, Fraction(1, 2)])), data.draw(_FRACTIONS)
    assume(base.coerce(r) != 0)
    m = SparsePoly.make(base, 2, [((0, 2), 1), ((0, 0), -r * r), ((1, 0), -c)])
    z = hensel_lift_root(m, r, precision)
    _assert_is(z, (z.offset, list(z.coeffs), precision))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_coeffs_is_the_scalar_form_and_equality_is_structural(data):
    base = data.draw(_BASES)
    ra = data.draw(scalar_series(base))
    a = TruncatedSeries.make(base, *ra)
    assert (a.offset, a.coeffs) == _ref(base, *ra)
    # the view is computed on each read, stores nothing and plays no part
    # in == and hash
    fresh = TruncatedSeries.make(base, *ra)
    slots = _slot_values(a)
    assert a.coeffs == a.coeffs and str(a) and repr(a)
    assert all(x is y for x, y in zip(_slot_values(a), slots))
    assert a == fresh and hash(a) == hash(fresh)
    # a different precision or coefficient is a different series
    assert a != TruncatedSeries.make(base, ra[0], ra[1], ra[2] + 1)
    if a.row:
        assert a != a + TruncatedSeries.monomial(base, a.offset, a.precision)


def _slot_values(a):
    return [getattr(a, name) for name in ("_key",) + TruncatedSeries.__slots__]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pickles_and_copies_round_trip(data):
    base = data.draw(_BASES)
    a = TruncatedSeries.make(base, *data.draw(scalar_series(base)))
    fresh = a * TruncatedSeries.constant(base, 1, a.precision)  # an equal series built apart
    for s in (a, fresh):
        for dup in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            _assert_canonical(dup)
            assert dup == s and dup._key == s._key and hash(dup) == hash(s)
            assert dup.coeffs == s.coeffs and repr(dup) == repr(s)

"""The integer storage of SparsePoly: one form per polynomial, whatever built it.

A polynomial is integers over one positive denominator coprime to them
(residues over 1 over F_p).  These properties draw polynomials over Q and
F5 and check the form against a scalar reference that adds and multiplies
dicts of canonical scalars.
"""

import copy
import math
import pickle
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly

Q = QQ()
F5 = GF(5)
# denominators stay below 5, so every fraction is a scalar of F5
_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def scalar_terms(draw, base, nvars=2, max_terms=4, max_exp=3):
    """{exponents: canonical scalar} with no zero."""
    acc = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        e = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in range(nvars))
        acc[e] = base.add(acc.get(e, base.zero), base.coerce(draw(_FRACTIONS)))
    return {e: c for e, c in acc.items() if c}


def _scalar_terms(acc: dict) -> tuple:
    """Nonzero (exponents, scalar) pairs, graded-lex descending."""
    return tuple(sorted(((e, c) for e, c in acc.items() if c), key=lambda t: (sum(t[0]), t[0]), reverse=True))


def _ref_add(base, a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = base.add(out.get(e, base.zero), c)
    return out


def _ref_mul(base, a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = base.add(out.get(e, base.zero), base.mul(ca, cb))
    return out


def _assert_stored_canonically(f: SparsePoly):
    assert list(f.ints) == sorted(f.ints, key=lambda t: (sum(t[0]), t[0]), reverse=True)
    assert len({e for e, _ in f.ints}) == len(f.ints)
    assert all(type(c) is int and c for _, c in f.ints)
    if f.base.p:
        assert f.denom == 1 and all(0 < c < f.base.p for _, c in f.ints)
    else:
        assert f.denom > 0 and math.gcd(f.denom, *(c for _, c in f.ints)) == 1
        assert all(type(c) is Fraction for _, c in f.terms)


def _assert_same(a: SparsePoly, b: SparsePoly):
    assert a == b and a._key == b._key and hash(a) == hash(b)
    _assert_stored_canonically(a)


_BASES = st.sampled_from([Q, F5])


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_every_construction_path_gives_one_form(data):
    base = data.draw(_BASES)
    fa, fb = data.draw(scalar_terms(base)), data.draw(scalar_terms(base))
    f, g = SparsePoly.make(base, 2, fa), SparsePoly.make(base, 2, fb)

    # sums and products against the scalar reference, built by make
    _assert_same(f + g, SparsePoly.make(base, 2, _ref_add(base, fa, fb)))
    _assert_same(f * g, SparsePoly.make(base, 2, _ref_mul(base, fa, fb)))
    _assert_same(f - f, SparsePoly.zero(base, 2))

    # _canon of the integers and the denominator scaled by one nonzero
    # factor (a unit mod 5), sign included
    k = data.draw(st.sampled_from([1, 2, -3, 6]))
    _assert_same(SparsePoly._canon(base, 2, {e: c * k for e, c in f.ints}, f.denom * k), f)

    # a sum of the terms one at a time, and a renaming there and back
    acc = SparsePoly.zero(base, 2)
    for e, c in fa.items():
        acc = acc + SparsePoly.make(base, 2, [(e, c)])
    _assert_same(acc, f)
    _assert_same(f.map_vars([1, 0], 2).map_vars([1, 0], 2), f)
    _assert_same(f.map_vars([0, 1], 3), SparsePoly.make(base, 3, [(e + (0,), c) for e, c in fa.items()]))

    # make of a quotient cancels the common factor to the same normal form
    if not g.is_zero:
        _assert_same(RationalFunction.make(f * g, g).num, RationalFunction.from_poly(f).num)
        _assert_same(RationalFunction.make(f * g, g).den, RationalFunction.from_poly(f).den)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_terms_is_the_scalar_form(data):
    base = data.draw(_BASES)
    fa, fb = data.draw(scalar_terms(base)), data.draw(scalar_terms(base))
    f, g = SparsePoly.make(base, 2, fa), SparsePoly.make(base, 2, fb)
    assert f.terms == _scalar_terms(fa)
    assert (f * g).terms == _scalar_terms(_ref_mul(base, fa, fb))
    assert (f + g).terms == _scalar_terms(_ref_add(base, fa, fb))
    assert all(type(c) is (Fraction if base.is_rationals else int) for _, c in (f * g).terms)
    # the view is computed on each read and stores nothing
    slots = _slot_values(f)
    assert f.terms == f.terms and str(f) and repr(f)
    assert all(a is b for a, b in zip(_slot_values(f), slots))


def _slot_values(f):
    return [getattr(f, name) for name in ("_key",) + SparsePoly.__slots__]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pickles_and_copies_round_trip(data):
    base = data.draw(_BASES)
    f = SparsePoly.make(base, 2, data.draw(scalar_terms(base)))
    fresh = f * SparsePoly.const(base, 2, 1)  # an equal polynomial built apart
    for g in (f, fresh):
        for dup in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
            _assert_same(dup, g)
            assert dup.terms == g.terms and repr(dup) == repr(g)
    r = RationalFunction.from_poly(f)
    assert pickle.loads(pickle.dumps(r)) == r

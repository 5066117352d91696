"""Truncated Laurent series arithmetic and its precision bookkeeping."""

import importlib.util
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uniformizer import dense
from uniformizer.errors import (
    InsufficientPrecisionError,
    NotInValuationRingError,
    PreconditionError,
)
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly
from uniformizer.series import (
    TruncatedSeries,
    _power,
    _product_bounds,
    eval_poly_at_series,
    eval_ratfun_at_series,
    poly_to_series,
    ratfun_to_series,
    series_str,
)

Q = QQ()
F5 = GF(5)

S = TruncatedSeries.make


def test_make_normalizes():
    s = S(Q, 0, [0, 0, 3, 0, 1, 0], 10)
    assert (s.offset, s.coeffs) == (2, (Fraction(3), Fraction(0), Fraction(1)))
    # stored coefficients never reach the precision bound
    s = S(Q, 0, [1] * 8, 4)
    assert len(s.coeffs) == 4
    z = S(Q, 3, [0, 0], 7)
    assert z.is_zero_to_precision and z.precision == 7


def test_order_queries():
    s = S(Q, 2, [5], 6)
    assert s.order() == 2 and s.known_order() == 2
    z = TruncatedSeries.zero(Q, 6)
    assert z.order() is None
    with pytest.raises(InsufficientPrecisionError) as exc:
        z.known_order()
    assert exc.value.needed == 7


def _needed_sites():
    """(site, failing call, the precision it failed at) for each place that
    raises InsufficientPrecisionError with a needed hint."""
    from uniformizer.completion import (
        _split_series,
        kaplansky_normalize,
        uniformize_discrete_rational,
    )
    from uniformizer.expr import parse_element, parse_series
    from uniformizer.series import DiscretePresentation, DiscreteSeriesPlace, series_element_value

    zero, t = TruncatedSeries.zero(Q, 6), TruncatedSeries.monomial(Q, 1, 4)
    x_minus_z = SparsePoly.make(Q, 2, [((0, 1), 1), ((1, 0), -1), ((2, 0), -1)])
    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((0, 0), -1), ((1, 0), -1)])
    # z known to precision 14, and an element whose series is zero to it
    literal = DiscreteSeriesPlace(F5, "t", ("z",), (parse_series("t + 2*t^3 + O(t^14)", F5, "t"),), 14)
    vanishing = parse_element("(z - t - 2*t^3)/t", F5, ("t", "z"))
    return [
        ("known_order", zero.known_order, 6),
        ("inverse", zero.inverse, 6),
        ("quotient", lambda: S(Q, 0, [1, 2], 6) / zero, 6),
        ("coefficient", lambda: S(Q, 1, [2], 8).coefficient(8), 8),
        ("residue", lambda: TruncatedSeries.zero(Q, 0).residue(), 0),
        ("split_series", lambda: _split_series(t, 2), 4),
        ("kaplansky_zero", lambda: kaplansky_normalize([], zero), 6),
        ("kaplansky_exhausted", lambda: kaplansky_normalize([x_minus_z], S(Q, 1, [1, 1], 6)), 6),
        ("zeta_block", lambda: uniformize_discrete_rational(
            DiscretePresentation(base=F5, min_poly=m, residue=1), [], precision=1), 1),
        ("series_element_value", lambda: series_element_value(literal, vanishing), 14),
    ]


@pytest.mark.parametrize("site, run, precision", _needed_sites(), ids=[c[0] for c in _needed_sites()])
def test_needed_exceeds_the_failed_precision(site, run, precision):
    """A rerun at needed is a rerun above the precision that failed."""
    with pytest.raises(InsufficientPrecisionError) as exc:
        run()
    assert exc.value.needed > precision


def test_coefficient_window():
    s = S(Q, 1, [2, 0, 4], 8)
    assert s.coefficient(0) == 0
    assert s.coefficient(1) == 2
    assert s.coefficient(2) == 0
    assert s.coefficient(7) == 0  # beyond stored data but inside precision
    with pytest.raises(InsufficientPrecisionError) as exc:
        s.coefficient(8)
    assert exc.value.needed == 9


def test_residue():
    assert S(Q, 0, [7, 1], 4).residue() == 7
    assert S(Q, 2, [1], 4).residue() == 0
    with pytest.raises(NotInValuationRingError):
        S(Q, -1, [1], 4).residue()
    with pytest.raises(InsufficientPrecisionError):
        TruncatedSeries.zero(Q, 0).residue()


def test_product_example():
    one_plus = S(Q, 0, [1, 1], 8)
    one_minus = S(Q, 0, [1, -1], 8)
    prod = one_plus * one_minus
    assert prod.coefficient(0) == 1
    assert prod.coefficient(1) == 0
    assert prod.coefficient(2) == -1


def test_geometric_inverse():
    s = S(Q, 0, [1, -1], 6)  # 1 - t
    inv = s.inverse()
    assert [inv.coefficient(k) for k in range(6)] == [1] * 6


def test_inverse_tracks_offset_and_precision():
    s = S(Q, 1, [1, 1], 8)  # t*(1 + t), known below 8
    inv = s.inverse()
    assert inv.offset == -1
    assert inv.precision == 6
    assert (s * inv - TruncatedSeries.constant(Q, 1, 5)).is_zero_to_precision


def test_zero_inverse_raises():
    with pytest.raises(InsufficientPrecisionError):
        TruncatedSeries.zero(Q, 5).inverse()


def test_pow_and_div():
    s = S(Q, 0, [1, 1], 6)
    sq = s ** 2
    assert [sq.coefficient(k) for k in range(3)] == [1, 2, 1]
    assert ((s ** 3) / s - sq).is_zero_to_precision
    neg = s ** -1
    assert neg.coefficient(1) == -1


def test_shift_and_truncate():
    s = S(Q, 0, [1, 2], 5)
    up = s.shift(3)
    assert (up.offset, up.precision) == (3, 8)
    cut = s.truncate(1)
    assert cut.precision == 1 and cut.coeffs == (Fraction(1),)
    with pytest.raises(PreconditionError):
        s.truncate(9)


def test_poly_and_ratfun_expansion():
    t = SparsePoly.variable(Q, 1, 0)
    p = t ** 3 + t.scale(2)
    s = poly_to_series(p, 10)
    assert [s.coefficient(k) for k in range(4)] == [0, 2, 0, 1]
    f = RationalFunction.from_poly(SparsePoly.const(Q, 1, 1)) / RationalFunction.from_poly(
        SparsePoly.const(Q, 1, 1) - RationalFunction.variable(Q, 1, 0).num
    )
    g = ratfun_to_series(f, 7)
    assert [g.coefficient(k) for k in range(7)] == [1] * 7
    # Laurent part: 1/t
    inv_t = ratfun_to_series(RationalFunction.variable(Q, 1, 0) ** -1, 5)
    assert inv_t.offset == -1 and inv_t.coefficient(-1) == 1


def test_series_str_examples():
    assert series_str(S(Q, 0, [1, 1, 1], 3)) == "1 + t + t^2 + O(t^3)"
    assert series_str(TruncatedSeries.zero(Q, 4)) == "O(t^4)"
    assert series_str(S(Q, -1, [1, -2], 3)) == "t^-1*(1 - 2*t) + O(t^3)"
    assert series_str(S(F5, 1, [3], 9), name="u") == "u*(3) + O(u^9)"


def test_eval_poly_at_series():
    # p(x, y) = x^2 + y at x = t, y = 1 + t
    p = SparsePoly.make(Q, 2, [((2, 0), 1), ((0, 1), 1)])
    t = TruncatedSeries.monomial(Q, 1, 8)
    y = S(Q, 0, [1, 1], 8)
    out = eval_poly_at_series(p, [t, y], 8)
    assert [out.coefficient(k) for k in range(3)] == [1, 1, 1]
    with pytest.raises(PreconditionError):
        eval_poly_at_series(p, [t], 8)


def test_eval_ratfun_at_series():
    x = RationalFunction.variable(Q, 2, 0)
    y = RationalFunction.variable(Q, 2, 1)
    f = x / y
    t = TruncatedSeries.monomial(Q, 1, 8)
    y_s = S(Q, 0, [1, 1], 8)
    out = eval_ratfun_at_series(f, [t, y_s], 8)
    # t / (1 + t) = t - t^2 + t^3 - ...
    assert out.coefficient(1) == 1 and out.coefficient(2) == -1


# ---------------------------------------------------------------------------
# precision soundness: redoing an operation with more precise inputs never
# changes a coefficient the less precise run claimed to know


@st.composite
def series_pairs(draw, base):
    """The same underlying data read off at two different precisions."""
    lo_prec = draw(st.integers(min_value=1, max_value=6))
    hi_prec = lo_prec + draw(st.integers(min_value=1, max_value=6))
    offset = draw(st.integers(min_value=-3, max_value=3))
    coeffs = draw(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=10)
    )
    lo = TruncatedSeries.make(base, offset, coeffs, lo_prec)
    hi = TruncatedSeries.make(base, offset, coeffs, hi_prec)
    return lo, hi


def _agree_below_claimed(a: TruncatedSeries, b: TruncatedSeries):
    """b refines a: they agree on every exponent a claims to know."""
    lo = min(a._lower_bound(), b._lower_bound(), a.precision)
    for k in range(lo, a.precision):
        assert a.coefficient(k) == b.coefficient(k)


@given(st.sampled_from([0, 1]), st.data())
@settings(max_examples=120, deadline=None)
def test_precision_soundness_add_mul(which_base, data):
    base = [Q, F5][which_base]
    a_lo, a_hi = data.draw(series_pairs(base))
    b_lo, b_hi = data.draw(series_pairs(base))
    _agree_below_claimed(a_lo + b_lo, a_hi + b_hi)
    _agree_below_claimed(a_lo * b_lo, a_hi * b_hi)


@given(st.sampled_from([0, 1]), st.data())
@settings(max_examples=120, deadline=None)
def test_precision_soundness_inverse(which_base, data):
    base = [Q, F5][which_base]
    a_lo, a_hi = data.draw(series_pairs(base))
    if a_lo.is_zero_to_precision:
        return
    _agree_below_claimed(a_lo.inverse(), a_hi.inverse())


@given(series_pairs(Q))
@settings(max_examples=80, deadline=None)
def test_inverse_is_two_sided_to_precision(pair):
    s, _ = pair
    if s.is_zero_to_precision:
        return
    prod = s * s.inverse()
    one = TruncatedSeries.constant(Q, 1, prod.precision)
    assert (prod - one).is_zero_to_precision


# ---------------------------------------------------------------------------
# the integer kernel against a schoolbook reference: coefficient by
# coefficient arithmetic through BaseField, with the same precision rules

P61 = (1 << 61) - 1
P63 = 9223372036854775783  # the largest prime BaseField accepts
KERNEL_FIELDS = [Q, GF(2), F5, GF(P61), GF(P63)]


def _ref_at(s, k):
    if k < s.offset or k >= s.offset + len(s.coeffs):
        return s.base.zero
    return s.coeffs[k - s.offset]


def _ref_add(a, b):
    prec = min(a.precision, b.precision)
    lo = min(a._lower_bound(), b._lower_bound(), prec)
    coeffs = [a.base.add(_ref_at(a, k), _ref_at(b, k)) for k in range(lo, prec)]
    return S(a.base, lo, coeffs, prec)


def _ref_mul(a, b):
    base = a.base
    prec = min(a.precision + b._lower_bound(), b.precision + a._lower_bound())
    if not a.coeffs or not b.coeffs:
        return TruncatedSeries.zero(base, prec)
    lo = a.offset + b.offset
    width = max(0, prec - lo)
    acc = [base.zero] * width
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if i + j < width:
                acc[i + j] = base.add(acc[i + j], base.mul(x, y))
    return S(base, lo, acc, prec)


def _ref_inverse(s):
    base, o = s.base, s.offset
    rel = s.precision - o
    u = [_ref_at(s, o + i) for i in range(rel)]
    inv = [base.inv(u[0])] + [base.zero] * (rel - 1)
    for k in range(1, rel):
        acc = base.zero
        for i in range(1, k + 1):
            acc = base.add(acc, base.mul(u[i], inv[k - i]))
        inv[k] = base.neg(base.mul(inv[0], acc))
    return S(base, -o, inv, s.precision - 2 * o)


def _ref_pow(a, n):
    out = None
    for _ in range(n):
        out = a if out is None else _ref_mul(out, a)
    return out


def _ref_eval(p, args, precision):
    acc = TruncatedSeries.zero(p.base, precision)
    for e, c in p.terms:
        term = TruncatedSeries.constant(p.base, c, precision)
        for a, k in zip(args, e):
            if k:
                term = _ref_mul(term, _ref_pow(a, k))
        acc = _ref_add(acc, term)
    return acc


def _same(a, b):
    assert (a.offset, a.coeffs, a.precision) == (b.offset, b.coeffs, b.precision)


def _scalars(base):
    if base.p is None:
        num = st.integers(min_value=-(10**30), max_value=10**30)
        return st.builds(Fraction, num, st.integers(min_value=1, max_value=10**6))
    # the largest residue sets the digit width
    return st.integers(min_value=0, max_value=base.p - 1) | st.just(base.p - 1)


@st.composite
def kernel_series(draw, base, max_blocks=5):
    """Series with interior zero runs, possibly zero or cut by the precision."""
    blocks = draw(
        st.lists(
            st.lists(st.just(0), min_size=1, max_size=5) | st.lists(_scalars(base), min_size=1, max_size=4),
            max_size=max_blocks,
        )
    )
    coeffs = [c for block in blocks for c in block]
    offset = draw(st.integers(min_value=-4, max_value=4))
    precision = offset + draw(st.integers(min_value=-2, max_value=len(coeffs) + 3))
    return S(base, offset, coeffs, precision)


@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_add_sub_mul_match_schoolbook(base, data):
    a = data.draw(kernel_series(base))
    b = data.draw(kernel_series(base))
    _same(a + b, _ref_add(a, b))
    _same(a - b, _ref_add(a, -b))
    _same(a * b, _ref_mul(a, b))


@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_inverse_matches_schoolbook(base, data):
    s = data.draw(kernel_series(base))
    if s.is_zero_to_precision:
        with pytest.raises(InsufficientPrecisionError):
            s.inverse()
        return
    _same(s.inverse(), _ref_inverse(s))


@st.composite
def kernel_polys(draw, base, nvars):
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars)
    terms = draw(st.lists(st.tuples(exps, _scalars(base)), max_size=5))
    return SparsePoly.make(base, nvars, terms)


@given(st.sampled_from(KERNEL_FIELDS), st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=120, deadline=None)
def test_kernel_eval_poly_matches_schoolbook(base, nvars, data):
    p = data.draw(kernel_polys(base, nvars))
    args = [data.draw(kernel_series(base, max_blocks=3)) for _ in range(nvars)]
    precision = data.draw(st.integers(min_value=-2, max_value=12))
    _same(eval_poly_at_series(p, args, precision), _ref_eval(p, args, precision))


@pytest.mark.parametrize("base", [Q, F5, GF(P63)], ids=str)
def test_kernel_matches_schoolbook_at_width_64(base):
    # several Newton doublings and wide Kronecker digits in one product
    coeffs = [((7 * k + 3) % 11 - 5) * (10**20 if base.p is None else 1) for k in range(64)]
    coeffs = [Fraction(c, k % 7 + 1) for k, c in enumerate(coeffs)] if base.p is None else coeffs
    coeffs[0] = coeffs[0] or 1
    u = S(base, 0, coeffs, 64)
    v = S(base, -1, coeffs[::-1], 63)
    _same(u * v, _ref_mul(u, v))
    _same(u.inverse(), _ref_inverse(u))
    _same(u + v, _ref_add(u, v))


def test_kernel_inverse_when_a_newton_product_meets_a_zero_run():
    # the first Newton round multiplies the zero u_1 by the wide residue 1/2
    s = S(GF(P61), 0, [2, 0, P61 - 1], 3)
    _same(s.inverse(), _ref_inverse(s))


EVAL_FIELDS = [Q, F5, GF(P61)]


def _eval_args(base, nvars):
    """Arguments with interior zeros, zero ones and negative orders, t^-1 among them."""
    t_inv = TruncatedSeries.monomial(base, 1, 10).inverse()
    return st.lists(
        kernel_series(base, max_blocks=3) | st.just(t_inv), min_size=nvars, max_size=nvars
    )


@given(st.sampled_from(EVAL_FIELDS), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=120, deadline=None)
def test_shared_power_table_matches_fresh_tables_and_schoolbook(base, nvars, data):
    args = data.draw(_eval_args(base, nvars))
    shared = {}
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        p = data.draw(kernel_polys(base, nvars))
        precision = data.draw(st.integers(min_value=-2, max_value=12))
        out = eval_poly_at_series(p, args, precision, shared)
        _same(out, eval_poly_at_series(p, args, precision))
        _same(out, _ref_eval(p, args, precision))


@given(st.sampled_from(EVAL_FIELDS), st.integers(min_value=1, max_value=2), st.data())
@settings(max_examples=120, deadline=None)
def test_constant_denominator_scales_the_numerator(base, nvars, data):
    # built directly, so that a constant denominator c != 1 also occurs over F_p
    num = data.draw(kernel_polys(base, nvars))
    c = data.draw(_scalars(base).filter(lambda c: c != 0))
    f = RationalFunction(num, SparsePoly.const(base, nvars, c))
    args = data.draw(_eval_args(base, nvars))
    precision = data.draw(st.integers(min_value=-2, max_value=12))
    want = eval_poly_at_series(num, args, precision) * TruncatedSeries.constant(
        base, base.inv(base.coerce(c)), precision
    )
    _same(eval_ratfun_at_series(f, args, precision), want)
    _same(eval_ratfun_at_series(f, args, precision, {}), want)


def test_constant_denominator_of_a_numerator_zero_to_precision():
    # t^12 / 3 vanishes to precision 8 at t; the product rule keeps precision 8
    t = TruncatedSeries.monomial(Q, 1, 8)
    f = RationalFunction(SparsePoly.make(Q, 1, [((12,), 1)]), SparsePoly.const(Q, 1, 3))
    out = eval_ratfun_at_series(f, [t], 8)
    assert out.is_zero_to_precision and out.precision == 8
    # x/2 at x = t^-1 + O(t^6) is t^-1/2, known to the precision 6 of its argument
    t_inv = t.inverse()
    f = RationalFunction(SparsePoly.make(Q, 1, [((1,), 1)]), SparsePoly.const(Q, 1, 2))
    _same(eval_ratfun_at_series(f, [t_inv], 8), S(Q, -1, [Fraction(1, 2)], 6))


def test_verify_evaluates_each_power_once(monkeypatch):
    # verify of the F5 X^2 - 1 - t certificate for z and (z - 1)/t: the
    # context's power table, the constant-denominator rule, which also
    # serves the polynomial witnesses of t and z, and the division rule fix
    # how many series products, inverses and long divisions it takes; a
    # context that rebuilt its powers on every call, or divided by a witness
    # denominator, would give the same report with more of them
    from uniformizer.checker import verify
    from uniformizer.completion import uniformize_discrete_rational
    from uniformizer.expr import parse_element
    from uniformizer.series import DiscretePresentation, SeriesContext
    from frozen_copy import replace

    m = parse_element("X^2 - 1 - t", F5, ("t", "X")).num
    pres = DiscretePresentation(base=F5, min_poly=m, residue=1)
    zetas = [parse_element(z, F5, ("t", "z")) for z in ("z", "(z - 1)/t")]
    system = uniformize_discrete_rational(pres, zetas, precision=16)
    counts = {"mul": 0, "inverse": 0, "quotient": 0}
    mul, inverse, quotient = TruncatedSeries.__mul__, TruncatedSeries.inverse, dense.quotient

    def counted_mul(a, b):
        counts["mul"] += 1
        return mul(a, b)

    def counted_inverse(a):
        counts["inverse"] += 1
        return inverse(a)

    def counted_quotient(*args):
        counts["quotient"] += 1
        return quotient(*args)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncatedSeries, "inverse", counted_inverse)
    monkeypatch.setattr(dense, "quotient", counted_quotient)
    pinned = {"mul": 6, "inverse": 2, "quotient": 3}
    assert verify(system).passed
    assert counts == pinned
    # the witnesses of t and z are polynomials: checking them takes no inverse
    # and no division
    assert all(w.den.is_constant for _, w in system.witnesses)
    counts.update(mul=0, inverse=0, quotient=0)
    assert verify(replace(system, witnesses=())).passed
    assert counts == pinned
    # three rows square a variable; a second pass over the rows through the
    # same context finds those squares in its table
    ctx = system.place.make_context()
    args = [ctx.ambient(rf) for rf in system.tvars + system.etas]
    counts.update(mul=0, inverse=0, quotient=0)
    for _ in range(2):
        for f in system.fs:
            ctx.eval_poly(f, args)
        assert counts == {"mul": 3, "inverse": 0, "quotient": 0}
    # a context whose power table is new on every call gives the same report
    # and misses the pin
    with monkeypatch.context() as mp:
        table = property(lambda ctx: {}, lambda ctx, table: None)
        mp.setattr(SeriesContext, "powers", table, raising=False)
        counts.update(mul=0, inverse=0, quotient=0)
        assert verify(system).passed
        assert counts["mul"] > pinned["mul"]


def _eval_per_term_chain(p, args, precision, powers):
    """eval_poly_at_series as it was before one-entry factors scaled: every
    term's factor rows multiplied by dense.mul in turn, cut to the result's
    precision, then scaled into one accumulator; the reference for the
    one-pass evaluation."""
    from math import lcm

    from uniformizer import dense
    from uniformizer.series import _power, _product_bounds

    terms, prec = [], precision
    for e, c in p.ints:
        factors = [_power(powers, args[i], k, p.base) for i, k in enumerate(e) if k]
        low, top = min(0, precision), precision
        for s in factors:
            low, top = _product_bounds(low, top, s._lower_bound(), s.precision)
        prec = min(prec, top)
        terms.append((c, factors))
    rows = []
    for c, factors in terms:
        off = sum(s.offset for s in factors)
        if off >= prec or not all(s.row for s in factors):
            continue
        row, d = [1], 1
        for i, s in enumerate(factors):
            row = s.row[: prec - off] if i == 0 else dense.mul(row, s.row, 0, prec - off)
            d *= s.denom
        rows.append((off, row, c, p.denom * d))
    lo = min((row[0] for row in rows), default=prec)
    den = lcm(*(row[3] for row in rows))
    acc = [0] * (prec - lo)
    for off, row, cn, d in rows:
        f = cn * (den // d)
        i = off - lo
        acc[i : i + len(row)] = [x + f * y for x, y in zip(acc[i : i + len(row)], row)]
    return TruncatedSeries._canon(p.base, lo, acc, den, prec)


@st.composite
def _short_series(draw, base):
    """One-entry series (monomials, t^-k among them) and zero ones."""
    offset = draw(st.integers(min_value=-3, max_value=4))
    precision = offset + draw(st.integers(min_value=-2, max_value=8))
    c = draw(_scalars(base))
    return S(base, offset, [c], precision)


@given(st.sampled_from(EVAL_FIELDS), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=150, deadline=None)
def test_eval_poly_matches_the_per_term_chain(base, nvars, data):
    arg = kernel_series(base, max_blocks=3) | _short_series(base)
    args = data.draw(st.lists(arg, min_size=nvars, max_size=nvars))
    p = data.draw(kernel_polys(base, nvars))
    precision = data.draw(st.integers(min_value=-2, max_value=12))
    got = eval_poly_at_series(p, args, precision)
    want = _eval_per_term_chain(p, args, precision, {})
    assert (got.offset, got.row, got.denom, got.precision) == (
        want.offset, want.row, want.denom, want.precision
    )


@pytest.mark.parametrize("schoolbook", [0, 8, 10**6], ids=["inverse", "cut", "long"])
@given(st.sampled_from(KERNEL_FIELDS), st.data())
@settings(max_examples=120, deadline=None)
def test_division_is_the_product_by_the_inverse(schoolbook, base, data):
    """a / b is a * b.inverse() on both sides of the cut, offsets, numerators
    zero to precision and precision alike; a divisor zero to its precision
    raises the inverse's error."""
    a = data.draw(kernel_series(base) | _short_series(base))
    b = data.draw(kernel_series(base) | _short_series(base))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dense, "_SCHOOLBOOK", schoolbook)
        if b.is_zero_to_precision:
            with pytest.raises(InsufficientPrecisionError) as want:
                b.inverse()
            with pytest.raises(InsufficientPrecisionError) as got:
                a / b
            assert (str(got.value), got.value.needed) == (str(want.value), want.value.needed)
            return
        assert a / b == a * b.inverse()


def test_eval_rejects_a_used_argument_over_another_field():
    p = SparsePoly.make(Q, 2, [((1, 0), 1)])
    t = TruncatedSeries.monomial(Q, 1, 8)
    with pytest.raises(PreconditionError):
        eval_poly_at_series(p, [TruncatedSeries.monomial(F5, 1, 8), t], 8)
    # an argument the polynomial never uses is not inspected
    out = eval_poly_at_series(p, [t, TruncatedSeries.monomial(F5, 1, 8)], 8)
    assert out.coeffs == (Fraction(1),)


# ---------------------------------------------------------------------------
# ratfun_to_series against sympy's expansion over Q


def _sympy_coefficients(sp, expr, t, precision):
    """Exponent -> Fraction coefficient of sympy's expansion of expr below t^precision."""
    out = {}
    for term in sp.Add.make_args(sp.expand(sp.series(expr, t, 0, precision).removeO())):
        c, e = term.as_coeff_exponent(t)
        out[int(e)] = out.get(int(e), 0) + Fraction(int(c.p), int(c.q))
    return out


def _assert_matches_sympy(sp, f, precision):
    t = sp.Symbol("t")

    def sym(poly):
        return sum(sp.Rational(c.numerator, c.denominator) * t ** e[0] for e, c in poly.terms)

    want = _sympy_coefficients(sp, sym(f.num) / sym(f.den), t, precision)
    s = ratfun_to_series(f, precision)
    assert s.precision == precision
    for k in range(min([s._lower_bound(), *want]), precision):
        assert s.coefficient(k) == want.get(k, 0), k


def _univariate(pairs):
    return SparsePoly.make(Q, 1, [((e,), c) for e, c in pairs])


@pytest.mark.parametrize(
    "num, den",
    [
        ([(0, 1), (1, 2)], [(0, 1), (1, -1), (2, -3)]),
        ([(0, Fraction(3, 4)), (5, -1)], [(0, 7), (1, -2), (4, 1)]),
        ([(2, 1), (0, -5)], [(1, 8), (2, 12), (3, 6), (4, 1)]),  # t*(2 + t)^3: a Laurent tail
    ],
)
def test_ratfun_to_series_matches_sympy_at_64(num, den):
    sp = pytest.importorskip("sympy")
    _assert_matches_sympy(sp, RationalFunction.make(_univariate(num), _univariate(den)), 64)


@given(
    st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5)), min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 4), st.integers(-5, 5)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=25, deadline=None)
def test_ratfun_to_series_matches_sympy(num, den, precision):
    sp = pytest.importorskip("sympy")
    num, den = _univariate(num), _univariate(den)
    if num.is_zero or den.is_zero:
        return
    _assert_matches_sympy(sp, RationalFunction.make(num, den), precision)


def test_series_sweep_script_smoke(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "series_sweep.py"
    spec = importlib.util.spec_from_file_location("series_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--precisions", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "   Q      8" in out and "  F5      8" in out and "FAIL" not in out
    # a generator that fails m(t, z) = O(t^n) is reported
    monkeypatch.setattr(sweep, "eval_poly_at_series", lambda f, args, n: TruncatedSeries.constant(Q, 1, n))
    assert sweep.main(["--precisions", "4", "--fields", "0"]) == 1
    assert "m(t, z) is not O(t^4)" in capsys.readouterr().out

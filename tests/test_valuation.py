"""Monomial places: term values, residues, and the rank bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uniformizer.errors import (
    NotAUnitError,
    PreconditionError,
    ValueOfZeroError,
)
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly
from uniformizer.surd import SurdScalar
from uniformizer.valuation import (
    MonomialPlace,
    abhyankar_report,
    residue_of,
    value_of_poly,
    value_of_ratfun,
)
from uniformizer.valuegroup import GroupOrder, compare

Q = QQ()
F5 = GF(5)


def _order(*blocks):
    return GroupOrder(
        tuple(tuple(SurdScalar.make([(q, d)]) for q, d in block) for block in blocks)
    )


def P(base, nvars, terms):
    return SparsePoly.make(base, nvars, terms)


# v x1 = 1, v x2 = sqrt(2), one residue transcendental y1
PLACE_R2 = MonomialPlace(Q, _order([(1, 1), (1, 2)]), tau=1)
# rank-one rational place v t = 1
PLACE_T = MonomialPlace(Q, _order([(1, 1)]), x_names=("t",))


def test_value_picks_minimal_term():
    # x1^3 has value 3, x1^2*x2 has value 2 + sqrt(2) > 3
    f = P(Q, 3, [((2, 1, 0), 1), ((3, 0, 0), 1)])
    v, terms = value_of_poly(PLACE_R2, f)
    assert v.coords == (Fraction(3), Fraction(0))
    assert terms == (((3, 0, 0), 1),)


def test_value_of_ratfun_subtracts():
    x1 = RationalFunction.variable(Q, 3, 0)
    x2 = RationalFunction.variable(Q, 3, 1)
    v = value_of_ratfun(PLACE_R2, x1 / x2)
    assert v.coords == (Fraction(1), Fraction(-1))
    assert v.sign() == -1  # 1 < sqrt(2)
    assert not value_of_ratfun(PLACE_R2, x1 / x2).sign() >= 0
    assert value_of_ratfun(PLACE_R2, x2 / x1).sign() >= 0


def test_zero_has_no_value():
    with pytest.raises(ValueOfZeroError):
        value_of_poly(PLACE_T, P(Q, 1, []))
    with pytest.raises(ValueOfZeroError):
        value_of_ratfun(PLACE_T, RationalFunction.const(Q, 1, 0))


def test_value_rejects_foreign_polynomials():
    with pytest.raises(PreconditionError):
        value_of_poly(PLACE_T, P(Q, 2, [((1, 0), 1)]))  # wrong nvars
    with pytest.raises(PreconditionError):
        value_of_poly(PLACE_T, P(F5, 1, [((1,), 1)]))  # wrong base field


def test_minimal_terms_share_x_exponents():
    # both x1*y1 and x1*y1^2 sit at value 1; x1^2 is above
    f = P(Q, 3, [((1, 0, 1), 1), ((1, 0, 2), 2), ((2, 0, 0), 7)])
    v, terms = value_of_poly(PLACE_R2, f)
    assert v.coords == (Fraction(1), Fraction(0))
    assert {e for e, _ in terms} == {(1, 0, 1), (1, 0, 2)}


def test_residue_of_unit():
    x1 = RationalFunction.variable(Q, 3, 0)
    y1 = RationalFunction.variable(Q, 3, 2)
    r = residue_of(PLACE_R2, (x1 * y1 + x1) / x1)
    assert str(r) == "y1bar + 1"
    assert not r.is_zero
    # a pure residue transcendental keeps its name
    assert str(residue_of(PLACE_R2, y1)) == "y1bar"


def test_residue_text_reads_each_side_over_its_denominator():
    # a quotient left unreduced keeps its sides over their own denominators;
    # the residue of N/D is the ratio of the minimal terms over theirs
    from uniformizer.valuation import _Quotient

    num = P(Q, 3, [((1, 0, 1), Fraction(1, 3)), ((1, 0, 0), Fraction(1, 2)), ((2, 0, 0), 7)])
    den = P(Q, 3, [((1, 0, 0), Fraction(2, 5)), ((1, 1, 0), 1)])
    assert (num.denom, den.denom) == (6, 5)
    ctx = PLACE_R2.make_context()
    value, residue = ctx.valuation(_Quotient(num, den))
    assert value.is_zero
    want = residue_of(PLACE_R2, RationalFunction.make(num, den))
    assert ctx.residue_text([residue]) == str(want) == "(10*y1bar + 15)/(12)"


def test_residue_requires_value_zero():
    x1 = RationalFunction.variable(Q, 3, 0)
    with pytest.raises(NotAUnitError):
        residue_of(PLACE_R2, x1)
    with pytest.raises(ValueOfZeroError):
        residue_of(PLACE_R2, RationalFunction.const(Q, 3, 0))


def test_abhyankar_report_counts():
    rep = abhyankar_report(PLACE_R2)
    assert rep.transcendence_degree == 3
    assert rep.rational_rank == 2
    assert rep.residue_transcendence_degree == 1
    assert rep.is_abhyankar
    rep1 = abhyankar_report(PLACE_T)
    assert (rep1.transcendence_degree, rep1.rational_rank) == (1, 1)
    assert rep1.is_abhyankar


def test_place_validation():
    with pytest.raises(PreconditionError):
        MonomialPlace(Q, _order([(1, 1)]), tau=-1)
    with pytest.raises(PreconditionError):
        MonomialPlace(Q, _order([(1, 1)]), tau=1, x_names=("u",), y_names=("u",))
    with pytest.raises(PreconditionError):
        MonomialPlace(Q, _order([(1, 1), (1, 2)]), x_names=("t",))  # count mismatch


# ---------------------------------------------------------------------------
# randomized properties

_ORDERS = [
    _order([(1, 1)]),
    _order([(1, 1), (1, 2)]),
    _order([(Fraction(3, 2), 1)], [(1, 1), (1, 3)]),
]


@st.composite
def places(draw):
    base = draw(st.sampled_from([Q, F5]))
    order = draw(st.sampled_from(_ORDERS))
    tau = draw(st.integers(min_value=0, max_value=2))
    return MonomialPlace(base, order, tau=tau)


@st.composite
def place_and_polys(draw, npolys=2):
    place = draw(places())
    polys = []
    for _ in range(npolys):
        nterms = draw(st.integers(min_value=1, max_value=4))
        terms = []
        for _ in range(nterms):
            e = tuple(
                draw(st.integers(min_value=0, max_value=4))
                for _ in range(place.nvars)
            )
            terms.append((e, draw(st.integers(min_value=-9, max_value=9))))
        polys.append(SparsePoly.make(place.base, place.nvars, terms))
    return place, polys


@given(place_and_polys())
@settings(max_examples=120, deadline=None)
def test_value_is_multiplicative(data):
    place, (f, g) = data
    if f.is_zero or g.is_zero:
        return
    vf, _ = value_of_poly(place, f)
    vg, _ = value_of_poly(place, g)
    vfg, _ = value_of_poly(place, f * g)
    assert vfg == vf + vg


@given(place_and_polys())
@settings(max_examples=120, deadline=None)
def test_ultrametric_inequality(data):
    place, (f, g) = data
    if f.is_zero or g.is_zero or (f + g).is_zero:
        return
    vf, _ = value_of_poly(place, f)
    vg, _ = value_of_poly(place, g)
    vs, _ = value_of_poly(place, f + g)
    lo = vf if compare(vf, vg) <= 0 else vg
    assert compare(vs, lo) >= 0
    if compare(vf, vg) != 0:
        assert vs == lo


def _oracle_value(qweights, f):
    """Independent scan: weighted exponent sums as plain Fractions, lex order.

    Only valid for orders whose blocks are all rank one and rational, where
    the block value of a term is literally coordinate * weight.
    """
    best = None
    for e, _ in f.terms:
        key = tuple(Fraction(e[i]) * q for i, q in enumerate(qweights))
        if best is None or key < best:
            best = key
    return best


@given(place_and_polys(npolys=1))
@settings(max_examples=120, deadline=None)
def test_term_scan_matches_oracle_on_rational_orders(data):
    place, (f,) = data
    if f.is_zero:
        return
    blocks = place.order.blocks
    if any(len(b) != 1 for b in blocks):
        return  # oracle only covers rank-one rational blocks
    qweights = []
    for (w,) in blocks:
        ((q, d),) = w.terms
        if d != 1:
            return
        qweights.append(q)
    v, _ = value_of_poly(place, f)
    got = tuple(c * q for c, q in zip(v.coords, qweights))
    assert got == _oracle_value(qweights, f)


@given(place_and_polys(npolys=1))
@settings(max_examples=120, deadline=None)
def test_term_scan_matches_group_compares(data):
    # the scan over integer block vectors against a scan that builds and
    # compares a GroupElement per term, on irrational and two-block orders
    place, (f,) = data
    if f.is_zero:
        return
    best, terms = None, []
    for e, c in f.ints:
        v = place.order.element(e[: place.rho])
        s = -1 if best is None else compare(v, best)
        if s < 0:
            best, terms = v, [(e, c)]
        elif s == 0:
            terms.append((e, c))
    assert value_of_poly(place, f) == (best, tuple(terms))


@given(place_and_polys())
@settings(max_examples=80, deadline=None)
def test_residue_is_multiplicative_on_units(data):
    place, (f, g) = data
    if f.is_zero or g.is_zero:
        return
    rf_ = RationalFunction.from_poly(f)
    rg_ = RationalFunction.from_poly(g)
    if value_of_ratfun(place, rf_).sign() != 0 or value_of_ratfun(place, rg_).sign() != 0:
        return
    prod = residue_of(place, rf_ * rg_)
    assert prod.rep == residue_of(place, rf_).rep * residue_of(place, rg_).rep


@given(place_and_polys())
@settings(max_examples=120, deadline=None)
def test_one_quotient_routine_behind_value_residue_and_context(data):
    # f/g, and the unit f*x^hg / (g*x^hf) with hf, hg the x-exponents of
    # the minimal terms of f and g
    place, (f, g) = data
    if f.is_zero or g.is_zero:
        return
    (_, ((ef, _), *_)), (_, ((eg, _), *_)) = value_of_poly(place, f), value_of_poly(place, g)
    rho, n = place.rho, place.nvars
    hf, hg = (P(place.base, n, [(e[:rho] + (0,) * place.tau, 1)]) for e in (ef, eg))
    ctx = place.make_context()
    for q in (RationalFunction.make(f, g), RationalFunction.make(f * hg, g * hf)):
        value, residue = ctx.valuation(q)
        assert value_of_ratfun(place, q) == value
        if value.is_zero:
            assert str(residue_of(place, q)) == ctx.residue_text([residue])
        else:
            assert residue is None
            with pytest.raises(NotAUnitError):
                residue_of(place, q)
    assert value.is_zero  # the second quotient is a unit


# ---------------------------------------------------------------------------
# the term scan pruned by per-term intervals, against an unpruned scan


def _unpruned_scan(place, f):
    """The least value and its terms, in f's order, from pairwise compares
    of every term's value with every other's; no interval is read."""
    values = [place.order.element(e[: place.rho]) for e, _ in f.ints]
    least = next(v for v in values if all(compare(v, w) <= 0 for w in values))
    return least, tuple(t for t, v in zip(f.ints, values) if compare(v, least) == 0)


_RADICANDS = [1, 2, 3, 5, 6, 7]


@st.composite
def _blocks(draw, size):
    rads = draw(st.lists(st.sampled_from(_RADICANDS), min_size=size, max_size=size, unique=True))
    return [(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4))), d) for d in rads]


@st.composite
def pruned_cases(draw):
    """A place of one or two blocks, the first of one to three weights, and
    a polynomial of up to 12 terms with exponents up to 6."""
    blocks = [draw(_blocks(draw(st.integers(1, 3))))]
    if draw(st.booleans()):
        blocks.append(draw(_blocks(draw(st.integers(1, 2)))))
    place = MonomialPlace(draw(st.sampled_from([Q, F5])), _order(*blocks), tau=draw(st.integers(0, 1)))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 6)] * place.nvars), st.integers(1, 4)), min_size=1, max_size=12
    ))
    return place, P(place.base, place.nvars, terms)


@given(pruned_cases())
@settings(max_examples=200, deadline=None)
def test_pruned_scan_matches_the_unpruned_scan(case):
    place, f = case
    if f.is_zero:
        return
    assert value_of_poly(place, f) == _unpruned_scan(place, f)


def _sqrt2_convergent(near):
    """A convergent p/q of sqrt(2) with q the first denominator above near."""
    p, q = 1, 1
    while q <= near:
        p, q = p + 2 * q, p + q
    return p, q


def test_overlapping_intervals_fall_back_to_the_exact_kernel(monkeypatch):
    import uniformizer.valuegroup as vg

    exact, surd_sign = [], vg.surd_sign
    monkeypatch.setattr(vg, "surd_sign", lambda *args: exact.append(args) or surd_sign(*args))
    p, q = _sqrt2_convergent(10**12)
    assert 10**12 < q < 3 * 10**12
    # x1^p and x2^q sit at p and q*sqrt(2), within 1/q of each other; x1^(2p) lies far above
    for a, b in ((p, q), _sqrt2_convergent(q)):
        f = P(Q, 3, [((a, 0, 0), 1), ((0, b, 0), 1), ((2 * a, 0, 0), 1)])
        heads = [e for e, _ in f.ints]
        kept = dict(zip(heads, PLACE_R2.order._may_be_least(heads)))
        assert kept == {(a, 0, 0): True, (0, b, 0): True, (2 * a, 0, 0): False}
        exact.clear()
        v, terms = value_of_poly(PLACE_R2, f)
        assert exact, "the 64-bit bounds cannot tell p from q*sqrt(2)"
        below = (a, 0) if a * a < 2 * b * b else (0, b)
        assert v.nums == below and v.den == 1
        assert [e[:2] for e, _ in terms] == [below]
        assert (v, terms) == _unpruned_scan(PLACE_R2, f)


def test_scan_with_no_x_variables_keeps_every_term():
    # rho = 0: every term has the empty head, value zero, and no interval is read
    place = MonomialPlace(Q, GroupOrder(()), tau=2)
    f = P(Q, 2, [((2, 0), 1), ((1, 1), 2), ((0, 1), 3), ((0, 0), 4)])
    v, terms = value_of_poly(place, f)
    assert v.nums == () and v.den == 1 and v.is_zero
    assert terms == f.ints
    assert str(residue_of(place, RationalFunction.from_poly(f))) == "y1bar^2 + 2*y1bar*y2bar + 3*y2bar + 4"


def test_terms_that_share_a_head_survive_together():
    # x1*y1 and x1 share the head (1, 0); x1^2 and x2^2 lie above it
    for extra in ([], [((2, 0, 0), 5), ((0, 2, 0), 6)]):
        f = P(Q, 3, [((1, 0, 1), 1), ((1, 0, 0), 2)] + extra)
        v, terms = value_of_poly(PLACE_R2, f)
        assert v.nums == (1, 0)
        assert terms == (((1, 0, 1), 1), ((1, 0, 0), 2))
        assert (v, terms) == _unpruned_scan(PLACE_R2, f)

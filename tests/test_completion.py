"""Series completions: Hensel lifting, separating truncations, certificates."""

import hashlib
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from uniformizer.completion import (
    DiscretePresentation,
    _QuotientRing,
    _monic_min_poly,
    _relative_system,
    _gamma_table,
    _value_table,
    _w_min_poly,
    DiscreteSeriesPlace,
    hensel_lift_root,
    kaplansky_normalize,
    realize_presentation,
    series_element_residue,
    series_element_value,
    uniformize_completion_algebraic,
    uniformize_discrete_rational,
    uniformize_immediate_simple,
    value_via_lvpol,
)
from uniformizer.errors import (
    InsufficientPrecisionError,
    NotInValuationRingError,
    PreconditionError,
    ValueOfZeroError,
)
from uniformizer.expr import parse_element
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly, hasse_derivative, poly_str, ratfun_str
from uniformizer.series import TruncatedSeries, equal_to_precision, eval_poly_at_series, poly_to_series
from uniformizer.uniformize import compose, uniformize_abhyankar, verify
from uniformizer.valuation import MonomialPlace
from uniformizer.valuegroup import GroupOrder
from uniformizer.surd import SurdScalar

Q = QQ()
F2 = GF(2)
F5 = GF(5)
F7 = GF(7)


def P(base, nvars, terms):
    return SparsePoly.make(base, nvars, terms)


def _sqrt_1_plus_t(base):
    """X^2 - (1 + t) as a polynomial in (t, X)."""
    return P(base, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])


# ---------------------------------------------------------------------------
# Hensel lifting


def test_hensel_example_char5():
    z = hensel_lift_root(_sqrt_1_plus_t(F5), 1, 8)
    assert [z.coefficient(k) for k in range(3)] == [1, 3, 3]
    f = _sqrt_1_plus_t(F5)
    t = TruncatedSeries.monomial(F5, 1, 8)
    assert eval_poly_at_series(f, [t, z], 8).is_zero_to_precision


def test_hensel_example_char0():
    z = hensel_lift_root(_sqrt_1_plus_t(Q), 1, 8)
    assert z.coefficient(1) == Fraction(1, 2)
    assert z.coefficient(2) == Fraction(-1, 8)


def test_hensel_cubic():
    # X^3 + t*X - (1 + t), residue root 1
    f = P(Q, 2, [((0, 3), 1), ((1, 1), 1), ((1, 0), -1), ((0, 0), -1)])
    z = hensel_lift_root(f, 1, 10)
    t = TruncatedSeries.monomial(Q, 1, 10)
    assert eval_poly_at_series(f, [t, z], 10).is_zero_to_precision


def test_hensel_rejects_bad_starts():
    with pytest.raises(PreconditionError):
        hensel_lift_root(_sqrt_1_plus_t(Q), 2, 8)  # 2^2 != 1
    ramified = P(Q, 2, [((0, 2), 1), ((1, 0), -1)])  # X^2 - t
    with pytest.raises(PreconditionError):
        hensel_lift_root(ramified, 0, 8)  # double root of the reduction
    inseparable = P(F2, 2, [((0, 2), 1), ((1, 0), 1), ((0, 0), 1)])  # X^2 + t + 1
    with pytest.raises(PreconditionError):
        hensel_lift_root(inseparable, 1, 8)


@given(
    st.sampled_from([0, 1]),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_hensel_root_annihilates(which, a1, a2):
    base = [Q, F5][which]
    f = P(base, 2, [((0, 2), 1), ((0, 0), -1), ((1, 0), -a1), ((2, 0), -a2)])
    z = hensel_lift_root(f, 1, 12)
    t = TruncatedSeries.monomial(base, 1, 12)
    assert eval_poly_at_series(f, [t, z], 12).is_zero_to_precision


# ---------------------------------------------------------------------------
# separating truncations


def _eval_at_poly(f, a):
    """f(t, a(t)) as an exact polynomial in t, term by term: the oracle for
    exact values and the reference for Kaplansky's tables."""
    acc = SparsePoly.zero(f.base, 1)
    for (i, j), c in f.ints:
        acc = acc + SparsePoly._canon(f.base, 1, {(i,): c}, f.denom) * a ** j
    return acc


def _tpoly(base, pairs):
    return P(base, 1, [((k,), c) for k, c in pairs])


def test_kaplansky_example():
    z = poly_to_series(_tpoly(Q, [(1, 1), (3, 1)]), 10)  # z = t + t^3
    fsq = P(Q, 2, [((0, 2), 1)])  # X^2
    w = kaplansky_normalize([fsq], z)
    assert w.a == _tpoly(Q, [(1, 1)])
    assert (w.b_coeff, w.b_exp, w.depth) == (Fraction(1), 3, 1)
    assert w.tables == (((0, 2), (1, 4), (2, 6)),)
    assert value_via_lvpol(w, fsq) == 2


def test_kaplansky_deepens_on_collision():
    # f(a) and f'(a)*b collide at the first truncation of this z
    z_poly = _tpoly(Q, [(1, 1), (3, 1), (4, 1), (7, 1)])
    z = poly_to_series(z_poly, 12)
    f = P(Q, 2, [((0, 2), 1), ((2, 0), -1), ((4, 0), -1)])  # X^2 - t^2 - t^4
    w = kaplansky_normalize([f], z)
    assert w.depth > 1
    tab = w.tables[0]
    assert len({v for _, v in tab}) == len(tab)
    # oracle: exact order of f(t, z(t)) for the polynomial z
    exact = _eval_at_poly(f, z_poly)
    assert value_via_lvpol(w, f) == min(e[0] for e, _ in exact.terms)


def test_kaplansky_error_paths():
    with pytest.raises(InsufficientPrecisionError):
        kaplansky_normalize([], TruncatedSeries.zero(Q, 6))
    z = poly_to_series(_tpoly(Q, [(1, 1)]), 4)  # exactly t: z - a vanishes
    f = P(Q, 2, [((0, 1), 1), ((1, 0), -1)])  # X - t, the element itself
    with pytest.raises(InsufficientPrecisionError):
        kaplansky_normalize([f], z)
    z2 = poly_to_series(_tpoly(Q, [(1, 1), (2, 1)]), 6)
    with pytest.raises(InsufficientPrecisionError):
        # X - z has no finite value; separation cannot happen at any depth
        kaplansky_normalize(
            [P(Q, 2, [((0, 1), 1), ((1, 0), -1), ((2, 0), -1)])], z2, max_depth=4
        )


def test_value_via_lvpol_fresh_polynomial():
    z_poly = _tpoly(F5, [(1, 1), (3, 2)])
    z = poly_to_series(z_poly, 12)
    anchor = P(F5, 2, [((0, 1), 1)])  # X
    w = kaplansky_normalize([anchor], z)
    g = P(F5, 2, [((0, 2), 1), ((1, 1), 3)])  # X^2 + 3 t X
    exact = _eval_at_poly(g, z_poly)
    assert value_via_lvpol(w, g) == min(e[0] for e, _ in exact.terms)
    with pytest.raises(PreconditionError):
        value_via_lvpol(w, SparsePoly.zero(F5, 2))


@given(
    st.sampled_from([0, 1]),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=5), st.integers(min_value=-4, max_value=4)),
        min_size=1,
        max_size=3,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=-4, max_value=4),
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_lvpol_matches_exact_order(which, zpairs, fterms):
    base = [Q, F5][which]
    z_poly = _tpoly(base, zpairs)
    if z_poly.is_zero:
        return
    f = P(base, 2, [((i, j), c) for i, j, c in fterms])
    exact = _eval_at_poly(f, z_poly)
    if exact.is_zero:
        return  # no finite value to predict
    z = poly_to_series(z_poly, 2 * (sum(z_poly.terms[0][0]) + sum(f.terms[0][0])) + 4)
    try:
        w = kaplansky_normalize([f], z)
    except InsufficientPrecisionError:
        return  # honest refusal is acceptable; wrong answers are not
    assert value_via_lvpol(w, f) == min(e[0] for e, _ in exact.terms)


# ---------------------------------------------------------------------------
# presentations and realization


def test_realize_presentation_conjugates():
    # only z is lifted; the other conjugates come back as residues, which
    # lift to the other root series
    pres = DiscretePresentation(base=F5, min_poly=_sqrt_1_plus_t(F5), residue=1)
    place, others = realize_presentation(pres, 12)
    assert place.gen_names == ("z",)
    assert others == [4]
    conj = hensel_lift_root(_sqrt_1_plus_t(F5), others[0], 12)
    assert equal_to_precision(conj, -place.gen_series[0])
    presq = DiscretePresentation(base=Q, min_poly=_sqrt_1_plus_t(Q), residue=1)
    placeq, othersq = realize_presentation(presq, 12)
    assert othersq == [-1]
    conjq = hensel_lift_root(_sqrt_1_plus_t(Q), othersq[0], 12)
    assert equal_to_precision(conjq, -placeq.gen_series[0])


def test_realize_presentation_rejects_a_double_conjugate():
    # X^3 + 3X + 1 + t over F5: the residue 1 is simple, the conjugate
    # residue 2 is a double root of the reduction, so it cannot be lifted
    m = parse_element("X^3 + 3*X + 1 + t", F5, ("t", "X")).num
    pres = DiscretePresentation(base=F5, min_poly=m, residue=1)
    with pytest.raises(PreconditionError, match="not a simple root"):
        realize_presentation(pres, 8)


def _cubic(base, text, residue, conjugates=None):
    m = parse_element(text, base, ("t", "X")).num
    return DiscretePresentation(base=base, min_poly=m, residue=residue, conjugate_residues=conjugates)


@pytest.mark.parametrize("base, text, residue, want", [
    # (X - 1/2)(X + 3)(X - 2) + t: the search meets 1/2 before -3
    (Q, "X^3 + 1/2*X^2 - 13/2*X + 3 + t", 2, [Fraction(1, 2), Fraction(-3)]),
    # (X - 1)(X - 3)(X - 5) + t over F7: enumeration meets 1 first
    (F7, "X^3 - 9*X^2 + 23*X - 15 + t", 5, [1, 3]),
    (F7, "X^3 - 9*X^2 + 23*X - 15 + t", 3, [1, 5]),
])
def test_realize_presentation_splits_a_cubic(base, text, residue, want):
    pres = _cubic(base, text, residue)
    place, others = realize_presentation(pres, 8)
    assert others == want
    assert place.gen_series[0].residue() == residue
    # each conjugate residue is simple, so it lifts
    for r in others:
        assert hensel_lift_root(pres.min_poly, r, 8).residue() == r


def test_conjugate_residue_root_errors():
    cubic = "X^3 - 9*X^2 + 23*X - 15 + t"
    assert realize_presentation(_cubic(F7, cubic, 5, (3, 1)), 8)[1] == [3, 1]
    with pytest.raises(PreconditionError, match="claimed residue root does not divide the reduction"):
        realize_presentation(_cubic(F7, cubic, 5, (2, 3)), 8)
    with pytest.raises(PreconditionError, match="does not account for every root"):
        realize_presentation(_cubic(F7, cubic, 5, (1,)), 8)
    with pytest.raises(PreconditionError, match="claimed residue root does not divide the reduction"):
        realize_presentation(_cubic(F7, cubic, 5, (1, 3, 3)), 8)
    with pytest.raises(PreconditionError, match="could not split"):
        realize_presentation(_cubic(Q, "X^3 - 2*X + t", 0), 8)
    with pytest.raises(PreconditionError, match="claimed residue root does not divide the reduction"):
        realize_presentation(_cubic(Q, "X^3 - 2*X + t", 0, ("3/2", "-3/2")), 8)


def test_large_prime_field_needs_conjugate_residues():
    # 4099 lies above the enumeration limit, so the roots 2 and 3 of
    # (X - 1)(X - 2)(X - 3) + t must be passed in
    F = GF(4099)
    cubic = "X^3 - 6*X^2 + 11*X - 6 + t"
    with pytest.raises(PreconditionError, match="pass conjugate_residues explicitly"):
        realize_presentation(_cubic(F, cubic, 1), 8)
    place, others = realize_presentation(_cubic(F, cubic, 1, (3, 2)), 8)
    assert others == [3, 2]
    assert place.gen_series[0].residue() == 1


def test_presentation_validation():
    with pytest.raises(PreconditionError):
        DiscretePresentation(base=Q, min_poly=P(Q, 1, [((1,), 1)]))
    with pytest.raises(PreconditionError):
        DiscretePresentation(
            base=Q, min_poly=_sqrt_1_plus_t(Q), gen_name="t"
        )
    with pytest.raises(PreconditionError):
        # X-leading coefficient must be a nonzero constant
        m = P(Q, 2, [((1, 2), 1), ((0, 0), -1)])
        realize_presentation(DiscretePresentation(base=Q, min_poly=m, residue=1))


def test_series_place_validation():
    z = poly_to_series(_tpoly(Q, [(1, 1)]), 8)
    with pytest.raises(PreconditionError):
        DiscreteSeriesPlace(Q, "t", ("z",), (z,), 16)  # series precision too low
    low = TruncatedSeries.make(Q, -1, [1], 8)
    with pytest.raises(PreconditionError):
        DiscreteSeriesPlace(Q, "t", ("z",), (low,), 8)
    with pytest.raises(PreconditionError):
        DiscreteSeriesPlace(Q, "t", ("t",), (z,), 8)


def test_series_element_queries():
    pres = DiscretePresentation(base=F5, min_poly=_sqrt_1_plus_t(F5), residue=1)
    place, _ = realize_presentation(pres, 16)
    t = RationalFunction.variable(F5, 2, 0)
    zv = RationalFunction.variable(F5, 2, 1)
    one = RationalFunction.const(F5, 2, 1)
    assert series_element_value(place, zv - one) == 1
    assert series_element_residue(place, (zv * zv - one) / t) == 1
    with pytest.raises(ValueOfZeroError):
        series_element_value(place, RationalFunction.const(F5, 2, 0))
    with pytest.raises(InsufficientPrecisionError):
        series_element_value(place, zv * zv - one - t)  # zero to precision
    with pytest.raises(PreconditionError):
        place.make_context(40)  # beyond the realized series: no rerun can help


# ---------------------------------------------------------------------------
# certificates for algebraic series extensions


def test_algebraic_certificate_frozen():
    sys_ = uniformize_completion_algebraic(_sqrt_1_plus_t(F5), 1, 16)
    names = sys_.var_names()
    assert [poly_str(f, names) for f in sys_.fs] == [
        "X1^2 + 4*X1 + c1",
        "X1*X2 + 4",
        "4*X2*c2 + X3 + 4",
    ]
    assert [ratfun_str(c, ("t",)) for c in sys_.coeff_table] == ["t", "3*t"]
    assert sys_.coeff_field_names == ("t",)
    assert sys_.zeta_indices == (2,)
    report = verify(sys_)
    assert report.passed, report.summary()
    assert report.diagonal_residue == "1"
    assert report.diagonal_entries == ("1", "1", "1")


def test_algebraic_certificate_char0():
    sys_ = uniformize_completion_algebraic(_sqrt_1_plus_t(Q), 1, 16)
    report = verify(sys_)
    assert report.passed, report.summary()


def test_compose_with_ground_layer():
    outer = uniformize_completion_algebraic(_sqrt_1_plus_t(F5), 1, 16)
    t_place = MonomialPlace(
        F5, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",)
    )
    inner = uniformize_abhyankar(t_place, list(outer.coeff_table))
    whole = compose(outer, inner)
    report = verify(whole)
    assert report.passed, report.summary()
    assert whole.coeff_table == ()
    # diagonal of the composition = inner diagonal then outer diagonal
    rep_in, rep_out = verify(inner), verify(outer)
    assert report.diagonal_entries == rep_in.diagonal_entries + rep_out.diagonal_entries


# ---------------------------------------------------------------------------
# the full pipeline


def _pres5():
    return DiscretePresentation(base=F5, min_poly=_sqrt_1_plus_t(F5), residue=1)


def test_pipeline_ground_system():
    t = RationalFunction.variable(F5, 2, 0)
    zv = RationalFunction.variable(F5, 2, 1)
    one = RationalFunction.const(F5, 2, 1)
    zetas = [zv, (zv - one) / t, zv]
    sys_ = uniformize_discrete_rational(_pres5(), zetas, precision=16)
    report = verify(sys_)
    assert report.passed, report.summary()
    assert sys_.coeff_table == ()
    assert len(sys_.zeta_indices) == 3
    assert sys_.zeta_indices[0] == sys_.zeta_indices[2]  # duplicates collapse
    for want, idx in zip(zetas, sys_.zeta_indices):
        assert sys_.etas[idx] == want


def _u3_fields(system):
    r = verify(system)
    assert r.u1.passed and r.u2.passed
    return (r.u3.passed, r.u3.detail, r.diagonal_value, r.diagonal_residue, r.diagonal_entries)


def test_u3_on_a_series_place():
    import dataclasses

    zv = RationalFunction.variable(F5, 2, 1)
    sys_ = uniformize_discrete_rational(_pres5(), [zv], precision=16)
    t1 = SparsePoly.variable(F5, sys_.s + sys_.n, 0)

    def mutant(changes):
        fs = list(sys_.fs)
        for row, change in changes.items():
            fs[row] = change(fs[row])
        return dataclasses.replace(sys_, fs=tuple(fs))

    assert _u3_fields(sys_) == (True, "", "0", "1", ("1",) * 5)
    # t1 * f keeps the zero and gives its X-partial value 1
    assert _u3_fields(mutant({2: lambda f: f * t1})) == (
        False, "diagonal product has nonzero value", "1", "0",
        ("1", "1", "value 1", "1", "1"),
    )
    # f^2 keeps the zero and its X-partial 2*f*f_X vanishes there
    assert _u3_fields(mutant({4: lambda f: f * f})) == (
        False, "diagonal product vanishes", "undefined", "0",
        ("1", "1", "1", "1", "0"),
    )
    # the diagonal residue is the product of the entry residues
    double = lambda f: f.scale(2)
    assert _u3_fields(mutant({2: double, 4: double})) == (
        True, "", "0", "4", ("1", "1", "2", "1", "2"),
    )


def test_pipeline_handles_coefficient_field_elements():
    t = RationalFunction.variable(F5, 2, 0)
    one = RationalFunction.const(F5, 2, 1)
    zeta = (t * t) / (one + t)
    sys_ = uniformize_discrete_rational(_pres5(), [zeta], precision=16)
    report = verify(sys_)
    assert report.passed, report.summary()
    assert sys_.etas[sys_.zeta_indices[0]] == zeta


def test_pipeline_without_algebraic_generator():
    pres = DiscretePresentation(base=Q)
    t = RationalFunction.variable(Q, 1, 0)
    sys_ = uniformize_discrete_rational(pres, [t ** 2, t ** 3])
    assert isinstance(sys_.place, MonomialPlace)
    assert verify(sys_).passed


def test_pipeline_rejects_elements_outside_the_ring():
    t = RationalFunction.variable(F5, 2, 0)
    zv = RationalFunction.variable(F5, 2, 1)
    one = RationalFunction.const(F5, 2, 1)
    with pytest.raises((PreconditionError, NotInValuationRingError)):
        uniformize_discrete_rational(_pres5(), [t ** -1], precision=16)
    with pytest.raises((PreconditionError, NotInValuationRingError)):
        uniformize_discrete_rational(_pres5(), [one / (zv - one)], precision=16)


def test_pipeline_insufficient_precision_surfaces():
    # two conjugates that agree for a long stretch need enough precision to
    # be told apart; a tiny budget must fail loudly rather than guess
    with pytest.raises(InsufficientPrecisionError):
        uniformize_discrete_rational(_pres5(), [], precision=1)


# ---------------------------------------------------------------------------
# the quotient ring K0(t)[X]/(m) and its minimal polynomials


def _ring(base, m_text):
    m = _monic_min_poly(parse_element(m_text, base, ("t", "X")).num)
    return _QuotientRing(m, ("t", "z"))


def _strs(rfs):
    return [ratfun_str(c, ("t",)) for c in rfs]


@st.composite
def _ring_cases(draw):
    """An irreducible m of degree 2 or 3 as in the benchmark, and one element.

    r^2 + c1*t + c2*t^3 is no square, and z^3 - z = c1*t + c2*t^2 has no
    root in K0(t), so both m are irreducible over K0(t).
    """
    base = draw(st.sampled_from((Q, F5, F7)))
    nonzero = [k for k in range(-4, 5) if k % (base.p or 11)]
    c1, c2 = draw(st.sampled_from(nonzero)), draw(st.integers(-4, 4))
    small = st.sampled_from([k for k in range(-3, 4) if k % (base.p or 7)])
    a, b, c = draw(small), draw(small), draw(small)
    i = draw(st.integers(0, 2))
    if draw(st.booleans()):
        r = draw(st.sampled_from([k for k in range(1, 5) if k % (base.p or 11)]))
        m, inside = f"X^2 - {r * r} - ({c1})*t - ({c2})*t^3", "z^2"
    else:
        r = draw(st.sampled_from((1, -1)))
        m, inside = f"X^3 - X - ({c1})*t - ({c2})*t^2", "(z^3 - z)"
    elements = [
        f"({a})*z + ({b})*t^{i}",
        f"({a})*z^2 + ({b})*t*z",
        f"(z - ({r}))/t",
        f"(({a})*z + ({b})*t)/(1 + ({c})*t*z)",
        inside,
        f"({a})*{inside}/(1 + ({b})*t)",
    ]
    return base, m, draw(st.sampled_from(elements))


@settings(max_examples=40, deadline=None)
@given(_ring_cases())
def test_ring_min_poly_matches_the_resultant(case):
    """h^(dim/deg h) is Res_X(m, Y*D - N) over its Y^dim coefficient."""
    sp = pytest.importorskip("sympy")
    base, m_text, f_text = case
    ring = _ring(base, m_text)
    f = parse_element(f_text, base, ("t", "z"))
    h = ring.min_poly(f)
    t, X, Y = sp.symbols("t X Y")

    def sym(poly, gens):
        return sum(
            sp.Rational(c.numerator, c.denominator) * sp.Mul(*(g**k for g, k in zip(gens, e)))
            for e, c in poly.terms
        )

    m = _monic_min_poly(parse_element(m_text, base, ("t", "X")).num)
    dim = m.degree_in(1)
    # over F_p the integer resultant of the lifts reduces to the resultant
    # mod p: m is monic, and no lifted coefficient vanishes mod p
    res = sp.resultant(sym(m, (t, X)), Y * sym(f.den, (t, X)) - sym(f.num, (t, X)), X)
    res = sp.Poly(res, Y)
    lead = res.coeff_monomial(Y**dim)
    if len(h) - 1 == dim:
        want = [(sym(c.num, (t,)), sym(c.den, (t,))) for c in h]
    else:
        assert len(h) == 2
        n0, d0 = sym(h[0].num, (t,)), sym(h[0].den, (t,))
        want = [(math.comb(dim, i) * n0 ** (dim - i), d0 ** (dim - i)) for i in range(dim + 1)]
    p = base.characteristic
    for i, (num, den) in enumerate(want):
        diff = sp.Poly(sp.expand(res.coeff_monomial(Y**i) * den - lead * num), t)
        assert all(c % p == 0 for c in diff.all_coeffs()) if p else diff.is_zero


# minimal polynomials as computed by the K0(t)-coefficient ring this one replaced
PINNED_MIN_POLYS = [
    (F5, "X^2 - 1 - t", "(z - 1)/t", ["(4)/(t)", "(2)/(t)", "1"]),
    (F5, "X^2 - 1 - t", "(2*z + t)/(1 + 3*t*z)",
     ["(t^2 + t + 1)/(t^3 + t^2 + 1)", "(2*t^2)/(t^3 + t^2 + 1)", "1"]),
    (F5, "X^2 - 1 - t", "z^2 + t*z", ["4*t^3 + 2*t + 1", "3*t + 3", "1"]),
    (F7, "X^3 - X - 2*t - 3*t^2", "(z - 1)/t", ["(4*t + 5)/(t^2)", "(2)/(t^2)", "(3)/(t)", "1"]),
    (F7, "X^3 - X - 2*t - 3*t^2", "(3*z + t)/(1 + t*z)", [
        "(2*t^3 + t^2 + 6*t)/(t^5 + 3*t^4 + 2*t^2 + 5)",
        "(6*t^3 + 3*t^2 + 4)/(t^5 + 3*t^4 + 2*t^2 + 5)",
        "(5*t^4 + 6*t^3 + t)/(t^5 + 3*t^4 + 2*t^2 + 5)",
        "1",
    ]),
    (F7, "X^3 - X - 2*t - 3*t^2", "z^3 - z", ["4*t^2 + 5*t", "1"]),
    (Q, "2*X^2 - 1 - t", "(z - 1)/t", ["(-t + 1)/(2*t^2)", "(2)/(t)", "1"]),
    (Q, "2*X^2 - 1 - t", "1/(z + t)", ["(2)/(2*t^2 - t - 1)", "(-4*t)/(2*t^2 - t - 1)", "1"]),
    (Q, "X^3 - X/4 - t/3", "z", ["(-t)/(3)", "(-1)/(4)", "0", "1"]),
    (Q, "X^3 - X/4 - t/3", "z^2 + t*z",
     ["(-12*t^4 - t^2)/(36)", "(-20*t^2 + 1)/(16)", "(-1)/(2)", "1"]),
]


@pytest.mark.parametrize("base, m_text, f_text, want", PINNED_MIN_POLYS)
def test_ring_min_poly_pinned(base, m_text, f_text, want):
    f = parse_element(f_text, base, ("t", "z"))
    assert _strs(_ring(base, m_text).min_poly(f)) == want


@pytest.mark.parametrize("base, m_text, residue, zetas, precision, want", [
    (F5, "X^2 - 1 - t", 1, ["z", "z + t", "(z - 1)/t"], 16,
     ["t", "3*t", "(t)/(t + 2)", "(2*t + 3)/(t + 2)", "4*t", "t^2", "2*t + 4"]),
    (Q, "X^3 - X - t", 0, ["z"], 32, ["t^2", "-t"]),
    (Q, "X^2 - 4 - t + 2*t^3", 2, ["(3*z + t)/(1 - t*z)"], 16, [
        "(6050*t^6 - 3025*t^4 - 12100*t^3 + 3025*t)/"
        "(1152*t^4 + 1152*t^3 - 288*t^2 - 2864*t - 2640)",
        "(660*t^5 + 330*t^4 - 330*t^3 - 1485*t^2 - 715*t + 330)/"
        "(144*t^4 + 144*t^3 - 36*t^2 - 358*t - 330)",
        "(55*t)/(4)",
        "(t)/(32*t^2 - 16)",
        "(1)/(2*t^2 - 1)",
        "(t)/(4)",
    ]),
])
def test_relative_coefficient_table_pinned(base, m_text, residue, zetas, precision, want):
    m = parse_element(m_text, base, ("t", "X")).num
    pres = DiscretePresentation(base, min_poly=m, residue=base.coerce(residue))
    system = _relative_system(pres, [parse_element(s, base, ("t", "z")) for s in zetas], precision)
    assert _strs(system.coeff_table) == want


def test_ring_denominators_on_a_split_modulus():
    ring = _ring(F5, "(X - 1)*(X - 2)")
    z = parse_element("z", F5, ("t", "z"))
    assert _strs(ring.min_poly(z)) == ["2", "2", "1"]
    assert _strs(ring.min_poly(z * z - z - z - z)) == ["2", "1"]
    zero = parse_element("1/((z - 1)*(z - 2))", F5, ("t", "z"))
    with pytest.raises(ZeroDivisionError) as err:
        ring.min_poly(zero)
    assert str(err.value) == (
        f"element {ratfun_str(zero, ('t', 'z'))} has a denominator that vanishes "
        "modulo the minimal polynomial"
    )
    divisor = parse_element("1/(z - 1)", F5, ("t", "z"))
    with pytest.raises(PreconditionError) as err:
        ring.min_poly(divisor)
    assert str(err.value) == (
        "element (1)/(z + 4) has a denominator that is a zero divisor "
        "modulo the minimal polynomial"
    )


def test_run_pipeline_script_smoke(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_pipeline.py"
    spec = importlib.util.spec_from_file_location("run_pipeline", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main([]) == 0
    assert script.main(["--p", "0", "--min-poly", "X^3-X-t", "--zeta", "z", "--precision", "32"]) == 0
    out = capsys.readouterr().out
    assert out.count("generation: pass") == 2


# ---------------------------------------------------------------------------
# immediate extensions presented by a series


def test_immediate_simple_certificate():
    z = poly_to_series(_tpoly(Q, [(1, 1), (3, 1), (7, 1)]), 12)
    zv = RationalFunction.variable(Q, 2, 1)
    t = RationalFunction.variable(Q, 2, 0)
    sys_ = uniformize_immediate_simple(z, [zv, zv * zv, (zv - t) / t ** 3])
    report = verify(sys_)
    assert report.passed, report.summary()
    assert sys_.coeff_field_names == ("t",)
    assert len(sys_.tvars) == 1


def test_immediate_simple_rejects_nonring_elements():
    z = poly_to_series(_tpoly(Q, [(1, 1), (3, 1), (7, 1)]), 12)
    zv = RationalFunction.variable(Q, 2, 1)
    one = RationalFunction.const(Q, 2, 1)
    with pytest.raises(NotInValuationRingError):
        uniformize_immediate_simple(z, [one / zv])


# ---------------------------------------------------------------------------
# Hensel roots against sympy's expansions over Q, and their reductions mod p

HENSEL_CASES = [
    # (min_poly, residue, sympy expansion of the root in t)
    ("X^2 - 1 - t", 1, "sqrt"),
    ("X^2 - 1 - t", -1, "-sqrt"),
    ("X^3 - X - t", 0, "reversion"),  # irreducible: a root in Q(t) would be a polynomial
]


def _sympy_root_coefficients(sp, kind, precision):
    t = sp.Symbol("t")
    if kind == "reversion":
        from sympy.polys.ring_series import rs_series_reversion

        R, X, y = sp.ring("X,y", sp.QQ)
        expansion = rs_series_reversion(X**3 - X, X, precision, y)
        return {e[1]: Fraction(int(c.numerator), int(c.denominator)) for e, c in expansion.terms()}
    sign = -1 if kind.startswith("-") else 1
    series = sp.expand(sp.series(sign * sp.sqrt(1 + t), t, 0, precision).removeO())
    out = {}
    for term in sp.Add.make_args(series):
        c, e = term.as_coeff_exponent(t)
        out[int(e)] = Fraction(int(c.p), int(c.q))
    return out


@pytest.mark.parametrize("m_text, residue, kind", HENSEL_CASES)
def test_hensel_root_matches_sympy_over_q_and_reduces_mod_p(m_text, residue, kind):
    sp = pytest.importorskip("sympy")
    n = 48
    want = _sympy_root_coefficients(sp, kind, n)
    m = parse_element(m_text, Q, ("t", "X")).num
    z = hensel_lift_root(m, residue, n)
    assert z.precision == n
    assert [z.coefficient(k) for k in range(n)] == [want.get(k, 0) for k in range(n)]
    for p in (5, 7):
        base = GF(p)
        mp = parse_element(m_text, base, ("t", "X")).num
        zp = hensel_lift_root(mp, residue, n)
        t = TruncatedSeries.monomial(base, 1, n)
        residual = eval_poly_at_series(mp, [t, zp], n)
        assert residual.is_zero_to_precision and residual.precision == n
        assert [zp.coefficient(k) for k in range(n)] == [base.coerce(want.get(k, 0)) for k in range(n)]


# ---------------------------------------------------------------------------
# Hensel lifting by Horner's rule, against the parent's evaluation


def _hensel_by_power_tables(f, x0, precision):
    """The Newton loop that evaluates f and f' with eval_poly_at_series,
    one fresh power table per evaluation; the reference for the Horner one."""
    base = f.base
    x0 = base.coerce(x0)
    dfdx = hasse_derivative(f, 1, var=1)
    z = TruncatedSeries.constant(base, x0, 1)
    w = TruncatedSeries.constant(base, base.inv(dfdx.evaluate((0, x0))), 1)
    t = TruncatedSeries.monomial(base, 1, precision)
    two = TruncatedSeries.constant(base, 2, precision)
    p = 1
    while p < precision:
        p2 = min(2 * p, precision)
        zt = TruncatedSeries.make(base, z.offset, z.coeffs, p2)
        z = zt - eval_poly_at_series(f, [t, zt], p2) * w
        if p2 < precision:
            wt = TruncatedSeries.make(base, w.offset, w.coeffs, p2)
            w = wt * (two - eval_poly_at_series(dfdx, [t, z], p2) * wt)
        p = p2
    return z


# sha256 of the reprs of hensel_lift_root at precisions 1, 2, 7, 16 and 64,
# one per line, as the power-table evaluation computed them
HENSEL_PINS = {
    ("Q", "X^2 - 1 - t", "1"): "32ad49e66f63fcda",
    ("Q", "X^2 - 1 - t", "-1"): "95de218e586076d3",
    ("F5", "X^2 - 1 - t", "1"): "88890bdc4f8e416d",
    ("F5", "X^2 - 1 - t", "4"): "5567de89b7c14af5",
    ("F7", "X^2 - 1 - t", "1"): "c9a3c7a1b53f4c8e",
    ("F7", "X^2 - 1 - t", "-1"): "c5f7e7b686687f61",
    ("Q", "X^3 + t*X - 1 - t", "1"): "64a2e82a93fb8186",
    ("Q", "X^3 - X - t", "0"): "d79578b12751ca90",
    ("F5", "X^3 - X - t", "0"): "5eed7bb8d336fe10",
    ("F7", "X^3 - X - t", "0"): "13efd4c3a8761d24",
    ("Q", "X^3 + 1/2*X^2 - 13/2*X + 3 + t", "2"): "1518cd1274da3b29",
    ("Q", "X^3 + 1/2*X^2 - 13/2*X + 3 + t", "1/2"): "af36fd82bb17fd28",
    ("Q", "X^3 + 1/2*X^2 - 13/2*X + 3 + t", "-3"): "24a96f73db1828b7",
    ("F7", "X^3 - 9*X^2 + 23*X - 15 + t", "5"): "aaba2a1394c3313f",
    ("F7", "X^3 - 9*X^2 + 23*X - 15 + t", "3"): "bf0a58b7d39be574",
    ("F7", "X^3 - 9*X^2 + 23*X - 15 + t", "1"): "9009431cb82c1917",
    ("F4099", "X^3 - 6*X^2 + 11*X - 6 + t", "1"): "893c3937e30f9aff",
    ("F5", "X^3 + 3*X + 1 + t", "1"): "b5ecb51d4468d53f",
    ("Q", "X^2 - 4 - t + 2*t^3", "2"): "cd99c5cad88bdb0e",
    ("Q", "X^3 - X/4 - t/3", "0"): "71b91a5cdd6c56fd",
    ("Q", "X^3 - X/4 - t/3", "1/2"): "9c57f8c33cd64d5d",
}
HENSEL_PRECISIONS = (1, 2, 7, 16, 64)


@pytest.mark.parametrize("field, m_text, residue", sorted(HENSEL_PINS))
def test_horner_hensel_matches_the_power_table_evaluation(field, m_text, residue):
    base = Q if field == "Q" else GF(int(field[1:]))
    m = parse_element(m_text, base, ("t", "X")).num
    x0 = base.coerce(Fraction(residue))
    lifts = [hensel_lift_root(m, x0, n) for n in HENSEL_PRECISIONS]
    for n, z in zip(HENSEL_PRECISIONS, lifts):
        assert z == _hensel_by_power_tables(m, x0, n)
        assert z.precision == n
    digest = hashlib.sha256("\n".join(map(repr, lifts)).encode()).hexdigest()[:16]
    assert digest == HENSEL_PINS[field, m_text, residue]


@given(
    st.sampled_from([Q, F5, F7]),
    st.lists(st.integers(-4, 4), min_size=2, max_size=5),
    st.integers(-3, 3),
    st.sampled_from(HENSEL_PRECISIONS),
)
@settings(max_examples=60, deadline=None)
def test_horner_hensel_matches_on_drawn_presentations(base, coeffs, x0, precision):
    # X^3 + c1*X^2 + ... with the t-terms chosen so that x0 is a root of the reduction
    f = P(base, 2, [((0, 3), 1)] + [((i, 1 + i % 2), c) for i, c in enumerate(coeffs, 1)])
    r = base.coerce(x0)
    f = f - P(base, 2, [((0, 0), f.evaluate((0, r)))])
    assume(hasse_derivative(f, 1, var=1).evaluate((0, r)) != 0)
    assert hensel_lift_root(f, r, precision) == _hensel_by_power_tables(f, r, precision)


# ---------------------------------------------------------------------------
# the minimal polynomial of w = b/(zeta - a) by a Moebius map


def _w_case(base, m_text, zeta_text, a_text, b_text):
    ring = _ring(base, m_text)
    zeta = parse_element(zeta_text, base, ("t", "z"))
    a = parse_element(a_text, base, ("t",)).num
    b = parse_element(b_text, base, ("t",)).num
    rest = zeta - RationalFunction.from_poly(a.map_vars([0], 2))
    # rest = 0 only where zeta = a lies in K0(t) and h(a) = 0
    w = None if rest.is_zero else RationalFunction.from_poly(b.map_vars([0], 2)) / rest
    return ring, ring.min_poly(zeta), a, b, w


SPLIT_CUBIC = "(X - 1 - t)*(X - 2 + t^2)*(X - 3)"


@pytest.mark.parametrize("base, m_text, zeta_text, a_text, b_text", [
    (F5, "X^2 - 1 - t", "z", "1", "3*t"),
    (F5, "X^2 - 1 - t", "(2*z + t)/(1 + 3*t*z)", "1 + t", "2*t^2"),
    (F7, "X^3 - X - 2*t - 3*t^2", "(3*z + t)/(1 + t*z)", "t", "t^3"),
    (Q, "X^3 - X/4 - t/3", "z^2 + t*z", "1/4", "-2/3*t"),
    (Q, "X^2 - 4 - t + 2*t^3", "(3*z + t)/(1 - t*z)", "6 + 5*t", "7/2*t^2"),
    (Q, SPLIT_CUBIC, "z", "1", "t"),
    (Q, SPLIT_CUBIC, "z", "3 + t", "1"),
    (Q, SPLIT_CUBIC, "z^2 + t*z", "2", "-3*t^2"),
    (F7, SPLIT_CUBIC, "(z - 3)/t", "1/2", "t"),
    (F5, SPLIT_CUBIC, "z", "2", "t^2"),
])
def test_w_min_poly_matches_the_elimination(base, m_text, zeta_text, a_text, b_text):
    ring, h, a, b, w = _w_case(base, m_text, zeta_text, a_text, b_text)
    assert _w_min_poly(ring, h, a, b, w) == ring.min_poly(w)


@settings(max_examples=40, deadline=None)
@given(_ring_cases(), st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3), st.sampled_from([1, -2, 3]))
def test_w_min_poly_matches_the_elimination_on_drawn_elements(case, a0, a1, e, c):
    base, m_text, f_text = case
    ring, h, a, b, w = _w_case(base, m_text, f_text, f"{a0} + {a1}*t", f"{c}*t^{e}")
    assume(not _at_zero(h, a))
    assert _w_min_poly(ring, h, a, b, w) == ring.min_poly(w)


def _at_zero(h, a):
    """Whether h(a) = 0, in rational-function arithmetic."""
    a_rf = RationalFunction.from_poly(a)
    return sum((c * a_rf ** i for i, c in enumerate(h)), RationalFunction.const(a.base, 1, 0)).is_zero


def test_w_min_poly_at_a_root_of_h_raises_as_the_elimination():
    # zeta = z on the split cubic: h(3) = 0, so zeta - 3 is a zero divisor
    ring, h, a, b, w = _w_case(Q, SPLIT_CUBIC, "z", "3", "t")
    assert _at_zero(h, a)
    with pytest.raises(PreconditionError) as want:
        ring.min_poly(w)
    with pytest.raises(PreconditionError) as got:
        _w_min_poly(ring, h, a, b, w)
    assert str(got.value) == str(want.value) == (
        "element (t)/(z - 3) has a denominator that is a zero divisor "
        "modulo the minimal polynomial"
    )


# ---------------------------------------------------------------------------
# Kaplansky's tables from one Taylor shift, against the term-by-term build


def _ref_gamma_table(g, a, b):
    """gamma_i = g^[i](a) * b^i: each Hasse derivative, then exact evaluation."""
    deg = g.degree_in(1) if not g.is_zero else -1
    return [_eval_at_poly(hasse_derivative(g, i, var=1), a) * b ** i for i in range(deg + 1)]


def _ref_value_table(f, a, b):
    return tuple((i, g.ints[-1][0][0]) for i, g in enumerate(_ref_gamma_table(f, a, b)) if not g.is_zero)


def _assert_tables_match(g, a, b):
    assert _gamma_table(g, a, b) == _ref_gamma_table(g, a, b)
    assert _value_table(g, a, b) == _ref_value_table(g, a, b)


# X-degree p and above, where some binomials vanish mod p
@pytest.mark.parametrize("base, g_text, a_text, b_text", [
    (F5, "X^5 - X - t", "1 + t^2", "3*t^3"),
    (F5, "X^7 + 2*t*X^5 + X^2 - t^2", "4 + t", "t"),
    (F7, "X^7 + t*X - 1 - t", "1 + 2*t + t^4", "5*t^2"),
    (F7, "X^10 - t*X^7 + 3*X^3", "2*t", "t^3"),
    (Q, "X^5 - X/4 - t/3", "1/2 + t/3", "-2/5*t^2"),
    (Q, "X^3 + 1/2*X^2 - 13/2*X + 3 + t", "2 - t/7", "1/49*t^2"),
    (Q, "X^2 - t^2 - t^4", "0", "t"),
])
def test_gamma_table_matches_hasse_derivatives(base, g_text, a_text, b_text):
    g = parse_element(g_text, base, ("t", "X")).num
    a = parse_element(a_text, base, ("t",)).num
    b = parse_element(b_text, base, ("t",)).num
    _assert_tables_match(g, a, b)


@given(
    st.sampled_from([Q, F5, F7]),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9), st.fractions(-5, 5, max_denominator=4)), max_size=6),
    st.lists(st.tuples(st.integers(0, 4), st.fractions(-5, 5, max_denominator=4)), max_size=3),
    st.integers(0, 4),
    st.fractions(-5, 5, max_denominator=4),
)
@settings(max_examples=80, deadline=None)
def test_gamma_table_matches_hasse_derivatives_on_drawn_polynomials(base, g_terms, a_terms, e, c):
    # denominators below 5 are units of F5 and F7
    assume(base.coerce(c) != 0)
    g = P(base, 2, [((i, j), v) for i, j, v in g_terms])
    a = P(base, 1, [((i,), v) for i, v in a_terms])
    _assert_tables_match(g, a, P(base, 1, [((e,), c)]))

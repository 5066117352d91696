"""Series completions: Hensel lifting, separating truncations, certificates."""

import functools
import hashlib
import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from uniformizer import dense
from uniformizer.checker import verify
from uniformizer.completion import (
    _QuotientRing,
    _relative_system,
    _residue_at_zero,
    _split_series,
    _gamma_table,
    _value_table,
    _kaplansky_table,
    kaplansky_normalize,
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
from uniformizer.jsonio import parse_presentation, system_to_json
from uniformizer.series import (
    DiscretePresentation,
    DiscreteSeriesPlace,
    TruncatedSeries,
    _monic_min_poly,
    eval_poly_at_series,
    eval_ratfun_at_series,
    hensel_lift_root,
    poly_to_series,
    realize_presentation,
    series_element_value,
)
from uniformizer.uniformize import compose, uniformize_abhyankar
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
    assert (w.b, w.depth) == (_tpoly(Q, [(3, 1)]), 1)
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
        kaplansky_normalize([P(Q, 2, [((0, 1), 1), ((1, 0), -1), ((2, 0), -1)])], z2)


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
    # only z is lifted; the other root residue, lifted here, gives the
    # other root series -z
    pres = DiscretePresentation(base=F5, min_poly=_sqrt_1_plus_t(F5), residue=1)
    place = realize_presentation(pres, 12)
    assert place.gen_names == ("z",)
    conj = hensel_lift_root(_sqrt_1_plus_t(F5), 4, 12)
    assert (conj + place.gen_series[0]).is_zero_to_precision
    presq = DiscretePresentation(base=Q, min_poly=_sqrt_1_plus_t(Q), residue=1)
    placeq = realize_presentation(presq, 12)
    conjq = hensel_lift_root(_sqrt_1_plus_t(Q), -1, 12)
    assert (conjq + placeq.gen_series[0]).is_zero_to_precision


def _certified(pres, texts, precision=16):
    """The ground certificate for the elements, which must verify."""
    zetas = [parse_element(text, pres.base, ("t", "z")) for text in texts]
    system = uniformize_discrete_rational(pres, zetas, precision=precision)
    report = verify(system)
    assert report.passed, report.summary()
    return system


def test_realize_presentation_accepts_a_double_conjugate():
    # X^3 + 3X + 1 + t over F5: the residue 1 is simple, the conjugate
    # residue 2 is a double root of the reduction; only z is lifted, so
    # the place realizes, and only the double root itself is refused
    m = parse_element("X^3 + 3*X + 1 + t", F5, ("t", "X")).num
    pres = DiscretePresentation(base=F5, min_poly=m, residue=1)
    assert realize_presentation(pres, 8).gen_series[0].residue() == 1
    _certified(pres, ["z", "(z - 1)/t"])
    with pytest.raises(PreconditionError, match="not a simple root"):
        realize_presentation(DiscretePresentation(base=F5, min_poly=m, residue=2), 8)


def _cubic(base, text, residue):
    m = parse_element(text, base, ("t", "X")).num
    return DiscretePresentation(base=base, min_poly=m, residue=residue)


@pytest.mark.parametrize("base, text, residue, want", [
    # (X - 1/2)(X + 3)(X - 2) + t
    (Q, "X^3 + 1/2*X^2 - 13/2*X + 3 + t", 2, [Fraction(1, 2), Fraction(-3)]),
    # (X - 1)(X - 3)(X - 5) + t over F7
    (F7, "X^3 - 9*X^2 + 23*X - 15 + t", 5, [1, 3]),
    (F7, "X^3 - 9*X^2 + 23*X - 15 + t", 3, [1, 5]),
])
def test_realize_presentation_splits_a_cubic(base, text, residue, want):
    # the reduction splits with the residues `want` besides z's; the block
    # cuts zeta's series where the conjugate rule on their lifts does
    pres = _cubic(base, text, residue)
    place = realize_presentation(pres, 8)
    assert place.gen_series[0].residue() == residue
    for element in ("z", f"(z - {residue})/t", "z^2 + t*z"):
        zeta = parse_element(element, base, ("t", "z"))
        assert _assert_block_cut_is_the_conjugate_rule(pres, [residue] + want, zeta, 8)
    _certified(pres, ["z", f"(z - {residue})/t"], 8)


def test_conjugate_residue_root_errors():
    # the root search and its errors are gone: a presentation whose other
    # roots are not in K0 realizes and certifies, and a conjugate_residues
    # key is ignored like any key the schema does not name
    pres = _cubic(Q, "X^3 - 2*X + t", 0)
    assert realize_presentation(pres, 8).gen_series[0].residue() == 0
    _certified(pres, ["z"], 8)
    doc = {"base": {"field": "Fp", "p": 7},
           "generator": {"min_poly": "X^3 - 9*X^2 + 23*X - 15 + t", "residue": 5}}
    plain, _ = parse_presentation(doc, "presentation")
    for claimed in ([3, 1], [2, 3], [1], [1, 3, 3], "junk"):
        doc["generator"]["conjugate_residues"] = claimed
        assert parse_presentation(doc, "presentation") == (plain, 32)
    with pytest.raises(TypeError):
        DiscretePresentation(base=Q, min_poly=pres.min_poly, residue=0, conjugate_residues=())


def test_large_prime_field_needs_no_conjugate_residues():
    # 4099 lay above the old enumeration limit; the block no longer needs
    # the roots 2 and 3 of (X - 1)(X - 2)(X - 3) + t
    F = GF(4099)
    pres = _cubic(F, "X^3 - 6*X^2 + 11*X - 6 + t", 1)
    assert realize_presentation(pres, 8).gen_series[0].residue() == 1
    _certified(pres, ["z", "(z - 1)/t"], 8)


def _conjugate_rule_cut(m, roots, zeta, precision):
    """zeta's distinct values at the Hensel lifts of the residues `roots`
    (its own first) and, from them, the cut (a, b) one past every order at
    which zeta's value meets another: the rule the relative block followed
    when it was given the conjugate residues."""
    t = TruncatedSeries.monomial(m.base, 1, precision)
    values = []
    for r in roots:
        v = eval_ratfun_at_series(zeta, [t, hensel_lift_root(m, r, precision)], precision)
        if not any((v - u).is_zero_to_precision for u in values):
            values.append(v)
    zs = values[0]
    return values, _split_series(zs, 1 + max(0, *((zs - v).known_order() for v in values[1:])))


def _assert_block_cut_is_the_conjugate_rule(pres, roots, zeta, precision):
    """Where the conjugate rule gives a cut that passes the reduction test,
    the block's w is b/(zeta - a) for that cut; returns whether it did."""
    m = _monic_min_poly(pres.min_poly)
    h = _QuotientRing(m, ("t", "z")).min_poly(zeta)
    k = len(h) - 1
    if k == 1:
        return False
    try:
        values, (a, b) = _conjugate_rule_cut(m, roots, zeta, precision)
    except InsufficientPrecisionError:
        return False
    if len(values) != k or values[0].order() is None or values[0].order() < 0:
        return False
    hw = _w_min_poly(h, a, b)
    want = [pres.base.zero] * (k - 1) + [pres.base.neg(pres.base.one), pres.base.one]
    if hw is None or [_residue_at_zero(c.num, c.den) for c in hw] != want:
        return False
    system = _relative_system(pres, [zeta], precision)
    lift = lambda p: RationalFunction.from_poly(p.map_vars([0], 2))
    assert system.etas[0] == lift(b) / (zeta - lift(a))
    return True


@st.composite
def _split_presentations(draw):
    """A monic m over Q, F5 or F7 with distinct root residues, each root
    with its own t-tail, the residues in order (z's first), and an element.
    z's tail starts at t^1, so that z is no constant (a constant z, whose
    series ends, is the open defect of a root in K0(t))."""
    base = draw(st.sampled_from((Q, F5, F7)))
    pool = list(range(-4, 5)) if base is Q else list(range(base.p))
    k = draw(st.integers(2, 3))
    roots = draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k, unique=True))
    nonzero = [c for c in range(-3, 4) if c % (base.p or 7)]
    factors = []
    for r in roots:
        tail = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
        if not factors:
            tail[0] = draw(st.sampled_from(nonzero))
        factors.append(f"(X - ({r}) - ({' + '.join(f'({c})*t^{j + 1}' for j, c in enumerate(tail))}))")
    pres = _cubic(base, "*".join(factors), roots[0])
    c = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    zeta = draw(st.sampled_from([
        "z",
        f"({c[0]})*z^2 + ({c[1]})*t*z + ({c[2]})*z",
        f"(z - ({roots[0]}))/t",
        f"(({c[0]})*z + ({c[1]})*t)/(1 + ({c[3]})*t*z)",
        f"(z^2 - ({roots[0] ** 2}))/t + ({c[2]})*z",
    ]))
    return pres, [base.coerce(r) for r in roots], parse_element(zeta, base, ("t", "z"))


@settings(max_examples=60, deadline=None)
@given(_split_presentations())
def test_block_cut_matches_the_conjugate_rule_on_drawn_split_presentations(case):
    pres, roots, zeta = case
    try:
        h = _QuotientRing(_monic_min_poly(pres.min_poly), ("t", "z")).min_poly(zeta)
    except (ZeroDivisionError, PreconditionError):
        assume(False)
    assume(len(h) > 2)
    assume(_assert_block_cut_is_the_conjugate_rule(pres, roots, zeta, 12))


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
    place = realize_presentation(pres, 16)
    t = RationalFunction.variable(F5, 2, 0)
    zv = RationalFunction.variable(F5, 2, 1)
    one = RationalFunction.const(F5, 2, 1)
    assert series_element_value(place, zv - one) == 1
    assert place.make_context().ambient((zv * zv - one) / t).residue() == 1
    with pytest.raises(ValueOfZeroError):
        series_element_value(place, RationalFunction.const(F5, 2, 0))
    with pytest.raises(InsufficientPrecisionError):
        series_element_value(place, zv * zv - one - t)  # zero to precision


# ---------------------------------------------------------------------------
# certificates for algebraic series extensions


def test_algebraic_certificate_frozen():
    sys_ = uniformize_completion_algebraic(_sqrt_1_plus_t(F5), 1, 16)
    names = sys_.var_names()
    assert [poly_str(f, names) for f in sys_.fs] == [
        "X1^2 + 4*X1 + c1",
        "X1*X2 + 4",
        "2*X2*c1 + X3 + 4",
    ]
    # 3*t is the pooled entry t with the scalar 3 folded in: 4*3 = 2
    assert [ratfun_str(c, ("t",)) for c in sys_.coeff_table] == ["t"]
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


def test_u2_on_a_series_place_gives_the_order_of_the_residual():
    from frozen_copy import replace

    zv = RationalFunction.variable(F5, 2, 1)
    sys_ = uniformize_discrete_rational(_pres5(), [zv], precision=16)
    width = sys_.s + sys_.n
    t1 = SparsePoly.variable(F5, width, 0)  # the T element t, of order 1
    for row, extra, order in ((0, t1 * t1, 2), (1, SparsePoly.const(F5, width, 3), 0)):
        fs = list(sys_.fs)
        fs[row] = fs[row] + extra
        report = verify(replace(sys_, fs=tuple(fs)))
        assert report.u2.detail == f"row {row + 1} does not vanish: value {order}"
    assert verify(sys_).u2.detail == ""


def test_u3_on_a_series_place():
    from frozen_copy import replace

    zv = RationalFunction.variable(F5, 2, 1)
    sys_ = uniformize_discrete_rational(_pres5(), [zv], precision=16)
    t1 = SparsePoly.variable(F5, sys_.s + sys_.n, 0)

    def mutant(changes):
        fs = list(sys_.fs)
        for row, change in changes.items():
            fs[row] = change(fs[row])
        return replace(sys_, fs=tuple(fs))

    # one inner row for the pooled t, then the three rows of z's block
    assert _u3_fields(sys_) == (True, "", "0", "1", ("1",) * 4)
    # t1 * f keeps the zero and gives its X-partial value 1
    assert _u3_fields(mutant({1: lambda f: f * t1})) == (
        False, "diagonal product has nonzero value: entry 2 has value 1", "1", "0",
        ("1", "value 1", "1", "1"),
    )
    # f^2 keeps the zero and its X-partial 2*f*f_X vanishes there
    assert _u3_fields(mutant({3: lambda f: f * f})) == (
        False, "diagonal product vanishes: entry 4 is 0", "undefined", "0",
        ("1", "1", "1", "0"),
    )
    # the diagonal residue is the product of the entry residues
    double = lambda f: f.scale(2)
    assert _u3_fields(mutant({1: double, 3: double})) == (
        True, "", "0", "4", ("1", "2", "1", "2"),
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


def _monic(base, rows):
    """The primitive K0[t] rows of a minimal polynomial as its monic
    coefficients h_i / h_k, lowest first."""
    poly = lambda row: SparsePoly(base, 1, dense.to_ints(row))
    return [RationalFunction.make(poly(row), poly(rows[-1])) for row in rows]


def _ring_min_poly(ring, f):
    return _monic(ring.base, ring.min_poly(f))


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
    h = _ring_min_poly(ring, f)
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
    rows = _ring(base, m_text).min_poly(f)
    assert _strs(_monic(base, rows)) == want
    # primitive: no common factor in K0[t], and over Q no common integer
    p = base.characteristic
    assert functools.reduce(lambda g, row: dense.gcd(g, row, p), rows) == [1]
    assert p or math.gcd(*(c for row in rows for c in row)) == 1


@pytest.mark.parametrize("base, m_text, residue, zetas, precision, want", [
    (F5, "X^2 - 1 - t", 1, ["z", "z + t", "(z - 1)/t"], 16,
     ["t", "(t)/(t + 2)", "(2*t + 3)/(t + 2)"]),
    (Q, "X^3 - X - t", 0, ["z"], 32, ["t"]),
    (Q, "X^2 - 4 - t + 2*t^3", 2, ["(3*z + t)/(1 - t*z)"], 16, [
        "(6050*t^6 - 3025*t^4 - 12100*t^3 + 3025*t)/"
        "(1152*t^4 + 1152*t^3 - 288*t^2 - 2864*t - 2640)",
        "(660*t^5 + 330*t^4 - 330*t^3 - 1485*t^2 - 715*t + 330)/"
        "(144*t^4 + 144*t^3 - 36*t^2 - 358*t - 330)",
        "t",
        "(t)/(32*t^2 - 16)",
        "(1)/(2*t^2 - 1)",
    ]),
])
def test_relative_coefficient_table_pinned(base, m_text, residue, zetas, precision, want):
    m = parse_element(m_text, base, ("t", "X")).num
    pres = DiscretePresentation(base, min_poly=m, residue=base.coerce(residue))
    system = _relative_system(pres, [parse_element(s, base, ("t", "z")) for s in zetas], precision)
    assert _strs(system.coeff_table) == want


@pytest.mark.parametrize("base, m_text", [
    (F5, "X^2 - 1 - t"),
    (F5, "(X - 1)*(X^2 - 2) + t"),
    (F5, "(X - 1 - t)*(X - 2)"),  # reducible
    (F7, "X^3 - X - 2*t - 3*t^2"),
    (F7, "(X - 1)*(X - 2)*(X - 3)"),  # split over K0
    (Q, "X^3 + X^2/720720 - 7*X + t"),
    (Q, "X^3 - 9*X^2 + 23*X - 15 + t"),
    (Q, "2*X^2 - 1 - t"),
    (Q, "X^3 - X/4 - t/3"),
])
def test_z_block_reads_its_minimal_polynomial_off_m(base, m_text):
    """The first dependency among 1, X, X^2, ... modulo m is m itself, so
    z's block takes m's primitive rows in place of an elimination."""
    ring = _ring(base, m_text)
    z = RationalFunction.variable(base, 2, 1)
    assert _monic(base, ring.z_rows) == _ring_min_poly(ring, z)
    assert base.p or math.gcd(*(c for row in ring.z_rows for c in row)) == 1


@st.composite
def _relative_cases(draw):
    """A presentation of the families of ``_ring_cases``, with its residue,
    and one to three elements of its valuation ring."""
    base = draw(st.sampled_from((Q, F5, F7)))
    nonzero = [k for k in range(-4, 5) if k % (base.p or 11)]
    c1, c2 = draw(st.sampled_from(nonzero)), draw(st.integers(-4, 4))
    small = st.sampled_from([k for k in range(-3, 4) if k % (base.p or 7)])
    if draw(st.booleans()):
        r = draw(st.sampled_from([k for k in range(1, 5) if k % (base.p or 11)]))
        m, inside = f"X^2 - {r * r} - ({c1})*t - ({c2})*t^3", "z^2"
    else:
        r = draw(st.sampled_from((1, -1)))
        m, inside = f"X^3 - X - ({c1})*t - ({c2})*t^2", "(z^3 - z)"
    elements = st.builds(
        lambda k, a, b, c, i: [
            f"({a})*z + ({b})*t^{i}",
            f"({a})*z^2 + ({b})*t*z",
            f"(z - ({r}))/t",
            f"(({a})*z + ({b})*t)/(1 + ({c})*t*z)",
            f"({a})*{inside} + ({b})*t^{i}",
            f"({a})*{inside}/(1 + ({b})*t)",
        ][k],
        st.integers(0, 5), small, small, small, st.integers(0, 2),
    )
    return base, m, r, draw(st.lists(elements, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(_relative_cases())
def test_polynomial_coefficients_fold_onto_the_pooled_t(case):
    """No coefficient entry but t itself has a constant denominator, and the
    relative, inner and composed systems verify, with the composed diagonal
    the inner one followed by the relative one."""
    base, m_text, residue, texts = case
    pres = DiscretePresentation(base, min_poly=parse_element(m_text, base, ("t", "X")).num, residue=base.coerce(residue))
    try:
        outer = _relative_system(pres, [parse_element(s, base, ("t", "z")) for s in texts], 32)
    except InsufficientPrecisionError:
        assume(False)
    t = RationalFunction.variable(base, 1, 0)
    assert all(c == t or not c.den.is_constant for c in outer.coeff_table)
    t_place = MonomialPlace(base, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",))
    inner = uniformize_abhyankar(t_place, list(outer.coeff_table))
    composed = compose(outer, inner)
    rep_in, rep_out, rep = verify(inner), verify(outer), verify(composed)
    for r in (rep_in, rep_out, rep):
        assert r.passed, r.summary()
    assert rep.diagonal_entries == rep_in.diagonal_entries + rep_out.diagonal_entries


def _folded_systems():
    def relative(base, m_text, residue, texts):
        pres = DiscretePresentation(base, min_poly=parse_element(m_text, base, ("t", "X")).num, residue=residue)
        return _relative_system(pres, [parse_element(s, base, ("t", "z")) for s in texts], 16)

    z = poly_to_series(_tpoly(F5, [(1, 1), (3, 1), (7, 1)]), 12)
    zv, t = RationalFunction.variable(F5, 2, 1), RationalFunction.variable(F5, 2, 0)
    return [
        relative(F5, "X^2 - 1 - t", 1, ["z", "z + t", "(z - 1)/t", "z^2"]),
        relative(Q, "X^3 - X - t", 0, ["z", "z^3 + t^2/3"]),
        uniformize_immediate_simple(z, [zv, zv * zv, (zv - t) / t ** 3]),
    ]


@pytest.mark.parametrize("which", range(3))
def test_a_changed_t_power_or_scalar_fails_u2(which):
    """Raising one folded power of t by one, or doubling its scalar, leaves a
    row that does not vanish."""
    from frozen_copy import replace

    system = _folded_systems()[which]
    base = system.place.base
    at = system.s + system.n + system.coeff_table.index(RationalFunction.variable(base, 1, 0))
    assert verify(system).passed
    mutants = 0
    for i, f in enumerate(system.fs):
        for j, (e, c) in enumerate(f.terms):
            if not e[at]:
                continue
            for term in ((e[:at] + (e[at] + 1,) + e[at + 1:], c), (e, base.mul(c, 2))):
                fs = list(system.fs)
                fs[i] = SparsePoly.make(base, f.nvars, f.terms[:j] + (term,) + f.terms[j + 1:])
                report = verify(replace(system, fs=tuple(fs)))
                assert report.u2.detail.startswith(f"row {i + 1} does not vanish"), (i, term)
                mutants += 1
    assert mutants >= 4


def test_ring_denominators_on_a_split_modulus():
    ring = _ring(F5, "(X - 1)*(X - 2)")
    z = parse_element("z", F5, ("t", "z"))
    assert _strs(_ring_min_poly(ring, z)) == ["2", "2", "1"]
    assert _strs(_ring_min_poly(ring, z * z - z - z - z)) == ["2", "1"]
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


# sha256 of json.dumps(system_to_json(...), sort_keys=True), first 16 digits
IMMEDIATE_WITH_ZEROS_PINS = {"Q": "b44fe16c5e5270f5", "F5": "cfde6ee7ec36dd74"}


@pytest.mark.parametrize("field", ["Q", "F5"])
def test_immediate_simple_aligns_tables_past_zero_elements(field):
    """A zero element enters Kaplansky's inputs with its denominator alone;
    the rows after it must still read their own elements' tables."""
    base = {"Q": Q, "F5": F5}[field]
    z = poly_to_series(_tpoly(base, [(1, 1), (3, 1), (7, 1)]), 12)
    zv = RationalFunction.variable(base, 2, 1)
    t = RationalFunction.variable(base, 2, 0)
    zero = RationalFunction.const(base, 2, 0)
    sys_ = uniformize_immediate_simple(z, [zv, zero, zv * zv, zero, (zv - t) / t ** 3])
    report = verify(sys_)
    assert report.passed, report.summary()
    text = json.dumps(system_to_json(sys_), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == IMMEDIATE_WITH_ZEROS_PINS[field]


# the four element shapes of the series_pipeline benchmark, then t*z and
# t^2*z + t, whose w = b/(zeta - a) cancels a power of t; r is the residue
RELATIVE_BLOCK_ELEMENTS = ["2*z - t", "-z^2 + 3*t*z", "(z - {r})/t", "(2*z + t)/(1 + 3*t*z)", "t*z", "t^2*z + t"]
RELATIVE_BLOCK_PINS = {
    "Q": ("X^2 - 4 - t", 2, "b661c02cd8c4b7c8"),
    "F5": ("X^2 - 4 - t", 2, "6ac7f421602a1330"),
    "F7": ("X^3 - X - 2*t - 3*t^2", 1, "6a3439cee7b24eaf"),
}


@pytest.mark.parametrize("field", ["Q", "F5", "F7"])
def test_discrete_rational_certificates_pinned(field):
    """Ground certificates of the relative blocks, byte for byte; every eta
    is in canonical form."""
    base = {"Q": Q, "F5": F5, "F7": F7}[field]
    m_text, r, pin = RELATIVE_BLOCK_PINS[field]
    system = _certified(_cubic(base, m_text, r), [z.format(r=r) for z in RELATIVE_BLOCK_ELEMENTS], 12)
    assert all(eta == RationalFunction.make(eta.num, eta.den) for eta in system.etas)
    text = json.dumps(system_to_json(system), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == pin


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


def _w_min_poly(h, a, b):
    """The monic minimal polynomial of w = b/(zeta - a), lowest coefficient
    first, as the relative block forms it at its accepted cut: gamma_s over
    gamma_0 = h(a) for Kaplansky's table of the rows h of zeta's; None when
    h(a) = 0."""
    gam = _kaplansky_table(h, 1, a, b)
    if gam[0].is_zero:
        return None
    return [RationalFunction.make(g, gam[0]) for g in gam[:0:-1]] + [RationalFunction.const(a.base, 1, 1)]


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
    assert _w_min_poly(h, a, b) == _ring_min_poly(ring, w)


@settings(max_examples=40, deadline=None)
@given(_ring_cases(), st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3), st.sampled_from([1, -2, 3]))
def test_w_min_poly_matches_the_elimination_on_drawn_elements(case, a0, a1, e, c):
    base, m_text, f_text = case
    ring, h, a, b, w = _w_case(base, m_text, f_text, f"{a0} + {a1}*t", f"{c}*t^{e}")
    assume(not _at_zero(h, a))
    assert _w_min_poly(h, a, b) == _ring_min_poly(ring, w)


def _at_zero(h, a):
    """Whether h(a) = 0, in rational-function arithmetic."""
    a_rf = RationalFunction.from_poly(a)
    coeffs = _monic(a.base, h)
    return sum((c * a_rf ** i for i, c in enumerate(coeffs)), RationalFunction.const(a.base, 1, 0)).is_zero


def test_w_min_poly_at_a_root_of_h_is_none():
    # zeta = z on the split cubic: h(3) = 0, so zeta - 3 is a zero divisor,
    # w is no element of the ring, and the cut is refused
    ring, h, a, b, w = _w_case(Q, SPLIT_CUBIC, "z", "3", "t")
    assert _at_zero(h, a)
    with pytest.raises(PreconditionError) as err:
        ring.min_poly(w)
    assert str(err.value) == (
        "element (t)/(z - 3) has a denominator that is a zero divisor "
        "modulo the minimal polynomial"
    )
    assert _w_min_poly(h, a, b) is None


# ---------------------------------------------------------------------------
# Kaplansky's tables from one Taylor shift, against the term-by-term build


def _ref_gamma_table(g, a, b):
    """gamma_i = g^[i](a) * b^i: each Hasse derivative, then exact evaluation."""
    deg = g.degree_in(1) if not g.is_zero else -1
    return [_eval_at_poly(hasse_derivative(g, i, var=1), a) * b ** i for i in range(deg + 1)]


def _ref_value_table(f, a, b):
    return tuple((i, g.ints[-1][0][0]) for i, g in enumerate(_ref_gamma_table(f, a, b)) if not g.is_zero)


def _assert_tables_match(g, a, b):
    gam = _gamma_table(g, a, b)
    assert gam == _ref_gamma_table(g, a, b)
    assert _value_table(gam) == _ref_value_table(g, a, b)


@given(
    st.sampled_from([Q, F5]),
    st.lists(st.tuples(st.integers(1, 5), st.integers(-4, 4)), min_size=1, max_size=3),
    st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)), max_size=4),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=60, deadline=None)
def test_witness_tables_match_the_reference(base, zpairs, fs_terms):
    """The witness keeps, per input and in input order, the gamma table of
    the accepted cut; its value tables read them."""
    z_poly = _tpoly(base, zpairs)
    assume(not z_poly.is_zero)
    fs = [P(base, 2, [((i, j), c) for i, j, c in terms]) for terms in fs_terms]
    try:
        w = kaplansky_normalize(fs, poly_to_series(z_poly, 16))
    except InsufficientPrecisionError:
        assume(False)
    assert w.gammas == tuple(_ref_gamma_table(f, w.a, w.b) for f in fs)
    assert w.tables == tuple(_ref_value_table(f, w.a, w.b) for f in fs)


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

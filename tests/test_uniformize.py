"""Triangular systems: construction, the four checks, and composition."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uniformizer.checker import TriangularSystem, verify
from uniformizer.errors import NotInValuationRingError, PreconditionError
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import (
    RationalFunction,
    SparsePoly,
    hasse_derivative,
    poly_str,
    ratfun_str,
)
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import compose, uniformize_abhyankar
from uniformizer.valuation import MonomialPlace, value_of_poly, value_of_ratfun
from uniformizer.valuegroup import GroupOrder, compare
from frozen_copy import replace

Q = QQ()
F2 = GF(2)
F5 = GF(5)


def _order(*blocks):
    return GroupOrder(
        tuple(tuple(SurdScalar.make([(q, d)]) for q, d in block) for block in blocks)
    )


PLACE_R2 = MonomialPlace(Q, _order([(1, 1), (1, 2)]))  # v x1 = 1, v x2 = sqrt(2)
PLACE_T = MonomialPlace(Q, _order([(1, 1)]), x_names=("t",))
PLACE_TAU = MonomialPlace(Q, _order([(1, 1)]), tau=1, x_names=("t",))


def _rf_var(place, i):
    return RationalFunction.variable(place.base, place.nvars, i)


def test_quotient_of_generators():
    x1, x2 = _rf_var(PLACE_R2, 0), _rf_var(PLACE_R2, 1)
    sys_ = uniformize_abhyankar(PLACE_R2, [x2 / x1])
    assert sys_.etas == (x2 / x1,)
    assert sys_.zeta_indices == (0,)
    assert [poly_str(f, sys_.var_names()) for f in sys_.fs] == ["-t2 + X1"]
    wmap = {name: ratfun_str(w, sys_.var_names()) for name, w in sys_.witnesses}
    assert wmap == {"x1": "t1", "x2": "t1*t2"}
    report = verify(sys_)
    assert report.passed
    assert report.diagonal_residue == "1"
    assert report.diagonal_entries == ("1",)


def test_polynomial_zetas_and_zero():
    t = _rf_var(PLACE_T, 0)
    zero = RationalFunction.const(Q, 1, 0)
    sys_ = uniformize_abhyankar(PLACE_T, [t ** 2, zero])
    assert verify(sys_).passed
    # the zero element gets the bare row X_j
    assert poly_str(sys_.fs[1], sys_.var_names()) == "X2"


@pytest.mark.parametrize("place", [PLACE_R2, PLACE_TAU])
def test_no_requested_element_reports_diagonal_residue_one(place):
    # the empty diagonal product: value 0, residue 1, no entries
    report = verify(uniformize_abhyankar(place, []))
    assert report.passed
    assert report.as_dict()["diagonal"] == {"value": "0", "residue": "1", "entries": []}


def test_residue_transcendentals_pass_through():
    t, y = _rf_var(PLACE_TAU, 0), _rf_var(PLACE_TAU, 1)
    zeta = (t + y * t) / (y ** 2 + RationalFunction.const(Q, 2, 1))
    assert value_of_ratfun(PLACE_TAU, zeta).sign() >= 0
    sys_ = uniformize_abhyankar(PLACE_TAU, [zeta])
    report = verify(sys_)
    assert report.passed
    # T consists of the x-part basis followed by the ys
    assert sys_.tvars[-1] == y


def test_rejects_elements_outside_the_ring():
    x1, x2 = _rf_var(PLACE_R2, 0), _rf_var(PLACE_R2, 1)
    with pytest.raises(PreconditionError):
        uniformize_abhyankar(PLACE_R2, [x1 / x2])  # value 1 - sqrt(2) < 0
    with pytest.raises(PreconditionError):
        uniformize_abhyankar(PLACE_R2, [RationalFunction.variable(Q, 1, 0)])


def test_u1_violation_is_reported():
    t = _rf_var(PLACE_T, 0)
    f0 = SparsePoly.make(Q, 3, [((0, 0, 1), 1), ((3, 0, 0), -1)])  # X2 - t1^3
    f1 = SparsePoly.make(Q, 3, [((0, 1, 0), 1), ((2, 0, 0), -1)])  # X1 - t1^2
    sys_ = TriangularSystem(
        place=PLACE_T, tvars=(t,), etas=(t ** 2, t ** 3), fs=(f0, f1)
    )
    report = verify(sys_)
    assert not report.u1.passed
    assert report.u1.detail == "row 1 uses X2"
    assert report.u2.passed  # rows still vanish
    assert not report.passed


def test_u2_violation_is_reported():
    t = _rf_var(PLACE_T, 0)
    f0 = SparsePoly.make(Q, 2, [((0, 1), 1), ((3, 0), -1)])  # X1 - t1^3 but eta is t^2
    sys_ = TriangularSystem(place=PLACE_T, tvars=(t,), etas=(t ** 2,), fs=(f0,))
    report = verify(sys_)
    assert report.u1.passed
    assert not report.u2.passed
    assert report.u2.detail == "row 1 does not vanish: value 2"  # t^2 - t^3


def test_u3_square_fails_every_characteristic():
    for base in (Q, F2):
        place = MonomialPlace(base, _order([(1, 1)]), x_names=("t",))
        t = RationalFunction.variable(base, 1, 0)
        f0 = SparsePoly.make(base, 2, [((0, 2), 1)])  # X1^2
        sys_ = TriangularSystem(
            place=place, tvars=(t,), etas=(RationalFunction.const(base, 1, 0),), fs=(f0,)
        )
        report = verify(sys_)
        assert report.u1.passed and report.u2.passed
        assert not report.u3.passed
        assert report.u3.detail == "diagonal product vanishes: entry 1 is 0"
        assert report.diagonal_value == "undefined"


def test_u3_positive_value_detail():
    t = _rf_var(PLACE_T, 0)
    # row vanishes but its X-partial is t1, a non-unit
    f0 = SparsePoly.make(Q, 2, [((1, 1), 1)])  # t1*X1, eta 0
    sys_ = TriangularSystem(
        place=PLACE_T, tvars=(t,), etas=(RationalFunction.const(Q, 1, 0),), fs=(f0,)
    )
    report = verify(sys_)
    assert not report.u3.passed
    assert report.u3.detail == "diagonal product has nonzero value: entry 1 has value 1"


def test_verify_rejects_elements_outside_the_ring():
    t = _rf_var(PLACE_T, 0)
    f0 = SparsePoly.make(Q, 2, [((0, 1), 1)])
    sys_ = TriangularSystem(place=PLACE_T, tvars=(t,), etas=(t ** -1,), fs=(f0,))
    with pytest.raises(NotInValuationRingError):
        verify(sys_)


def test_generation_needs_witness_or_listing():
    # a system mentioning neither x2 nor a witness for it fails generation
    x1 = _rf_var(PLACE_R2, 0)
    f0 = SparsePoly.make(Q, 2, [((0, 1), 1), ((1, 0), -1)])  # X1 - t1
    sys_ = TriangularSystem(place=PLACE_R2, tvars=(x1,), etas=(x1,), fs=(f0,))
    report = verify(sys_)
    assert not report.generation.passed
    assert "x2 (no witness)" in report.generation.detail


def test_witness_must_reproduce_the_generator():
    t = _rf_var(PLACE_T, 0)
    f0 = SparsePoly.make(Q, 2, [((0, 1), 1), ((2, 0), -1)])  # X1 - t1^2
    bad = RationalFunction.variable(Q, 2, 1)  # claims t = X1, but X1 is t^2
    sys_ = TriangularSystem(
        place=PLACE_T, tvars=(t ** 2,), etas=(t ** 2,), fs=(f0,),
        witnesses=(("t", bad),),
    )
    report = verify(sys_)
    assert not report.generation.passed
    assert "witness does not reproduce" in report.generation.detail


def test_system_layout_validation():
    t = _rf_var(PLACE_T, 0)
    with pytest.raises(PreconditionError):
        # row polynomial has the wrong number of variables
        TriangularSystem(
            place=PLACE_T, tvars=(t,), etas=(t,),
            fs=(SparsePoly.make(Q, 5, [((0, 0, 0, 0, 1), 1)]),),
        )
    with pytest.raises(PreconditionError):
        # one row per eta
        TriangularSystem(place=PLACE_T, tvars=(t,), etas=(t,), fs=())


# ---------------------------------------------------------------------------
# composition


def _inner_identity():
    t = _rf_var(PLACE_T, 0)
    return uniformize_abhyankar(PLACE_T, [t])


PLACE_TU = MonomialPlace(Q, _order([(1, 1), (1, 2)]), x_names=("t", "u"))


def _outer_relative():
    """One row X1 = c1 * t1 over the coefficient field Q(t)."""
    u = RationalFunction.variable(Q, 2, 1)
    t = RationalFunction.variable(Q, 2, 0)
    f = SparsePoly.make(Q, 3, [((0, 1, 0), 1), ((1, 0, 1), -1)])  # X1 - c1*t1
    wit_u = RationalFunction.variable(Q, 3, 0)
    return TriangularSystem(
        place=PLACE_TU,
        tvars=(u,),
        etas=(t * u,),
        fs=(f,),
        coeff_field_names=("t",),
        coeff_table=(RationalFunction.variable(Q, 1, 0),),
        zeta_indices=(0,),
        witnesses=(("u", wit_u),),
    )


def test_compose_stacks_systems():
    outer, inner = _outer_relative(), _inner_identity()
    assert verify(outer).passed
    assert verify(inner).passed
    whole = compose(outer, inner)
    assert whole.place is PLACE_TU
    assert whole.coeff_table == ()
    assert whole.s == 2 and whole.n == 2
    # outer T first, then inner T lifted; inner etas first, then outer
    assert ratfun_str(whole.tvars[0], ("t", "u")) == "u"
    assert ratfun_str(whole.tvars[1], ("t", "u")) == "t"
    assert ratfun_str(whole.etas[1], ("t", "u")) == "t*u"
    assert whole.zeta_indices == (1,)
    report = verify(whole)
    assert report.passed


def test_compose_rejects_mismatches():
    outer, inner = _outer_relative(), _inner_identity()
    with pytest.raises(PreconditionError):
        compose(outer, outer)  # inner may not carry coefficients
    bad_outer = TriangularSystem(
        place=outer.place, tvars=outer.tvars, etas=outer.etas, fs=outer.fs,
        coeff_field_names=("w",), coeff_table=outer.coeff_table,
        witnesses=outer.witnesses,
    )
    with pytest.raises(PreconditionError):
        compose(bad_outer, inner)
    t1 = RationalFunction.variable(Q, 1, 0)
    unmatched = TriangularSystem(
        place=outer.place, tvars=outer.tvars, etas=outer.etas, fs=outer.fs,
        coeff_field_names=("t",), coeff_table=(t1 + t1,),
        witnesses=outer.witnesses,
    )
    with pytest.raises(PreconditionError) as exc:
        compose(unmatched, inner)
    assert "matches no inner eta" in str(exc.value)


def _sqrt_1_plus_t_system():
    from uniformizer.completion import uniformize_completion_algebraic

    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((0, 0), -1), ((1, 0), -1)])  # X^2 - 1 - t
    return uniformize_completion_algebraic(m, 1, 16)


@pytest.mark.parametrize("make", [_outer_relative, _sqrt_1_plus_t_system])
def test_verify_names_an_unknown_coefficient_field_name(make):
    system = make()
    assert system.coeff_table and verify(system).passed
    renamed = replace(system, coeff_field_names=("w",))
    with pytest.raises(PreconditionError, match="'w'"):
        verify(renamed)


def test_both_verify_contexts_expose_the_contract():
    from uniformizer.series import SeriesContext
    from uniformizer.valuation import MonomialContext

    contract = {"ambient", "eval_poly", "eval_ratfun", "is_zero", "equal", "valuation", "residue_text"}
    for cls in (MonomialContext, SeriesContext):
        public = {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}
        assert public == contract, cls.__name__


# ---------------------------------------------------------------------------
# randomized soundness

_ORDERS = [
    _order([(1, 1)]),
    _order([(1, 1), (1, 2)]),
    _order([(2, 1)], [(1, 1), (1, 3)]),
]


@st.composite
def place_and_zetas(draw):
    base = draw(st.sampled_from([Q, F5]))
    order = draw(st.sampled_from(_ORDERS))
    tau = draw(st.integers(min_value=0, max_value=1))
    place = MonomialPlace(base, order, tau=tau)
    nz = draw(st.integers(min_value=1, max_value=2))
    zetas = []
    for _ in range(nz):
        polys = []
        for _ in range(2):
            nterms = draw(st.integers(min_value=1, max_value=3))
            terms = [
                (
                    tuple(
                        draw(st.integers(min_value=0, max_value=3))
                        for _ in range(place.nvars)
                    ),
                    draw(st.integers(min_value=-4, max_value=4)),
                )
                for _ in range(nterms)
            ]
            p = SparsePoly.make(base, place.nvars, terms)
            if p.is_zero:
                p = SparsePoly.const(base, place.nvars, 1)
            polys.append(p)
        f, g = polys
        vf, _ = value_of_poly(place, f)
        vg, _ = value_of_poly(place, g)
        if compare(vf, vg) < 0:
            f, g = g, f
        zetas.append(RationalFunction.make(f, g))
    return place, zetas


@given(place_and_zetas())
@settings(max_examples=60, deadline=None)
def test_random_instances_verify(data):
    place, zetas = data
    sys_ = uniformize_abhyankar(place, zetas)
    report = verify(sys_)
    assert report.passed, report.summary()
    # the requested elements are the listed etas, in order
    assert [sys_.etas[i] for i in sys_.zeta_indices] == zetas


def _rf_det(mat, one):
    """Laplace expansion along the first row; no triangularity assumed."""
    n = len(mat)
    if n == 0:
        return one
    if n == 1:
        return mat[0][0]
    acc = None
    for j in range(n):
        if mat[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in mat[1:]]
        term = mat[0][j] * _rf_det(minor, one)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc if acc is not None else one - one


@given(place_and_zetas())
@settings(max_examples=30, deadline=None)
def test_jacobian_determinant_matches_diagonal_product(data):
    """The X-Jacobian of a system passing U1 is lower triangular once
    evaluated, so a full determinant expansion must agree with the product
    of the diagonal entries."""
    place, zetas = data
    sys_ = uniformize_abhyankar(place, zetas)
    s, n = sys_.s, sys_.n
    args = list(sys_.tvars) + list(sys_.etas)
    from uniformizer.polyfield import substitute

    mat = [
        [RationalFunction.make(*substitute(hasse_derivative(sys_.fs[i], 1, var=s + j), args)) for j in range(n)]
        for i in range(n)
    ]
    for i in range(n):
        for j in range(i + 1, n):
            assert mat[i][j].is_zero
    one = RationalFunction.const(place.base, place.nvars, 1)
    diag = one
    for i in range(n):
        diag = diag * mat[i][i]
    assert _rf_det(mat, one) == diag

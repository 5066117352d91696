"""Monomial places on rational function fields K(x_1..x_rho, y_1..y_tau).

The x variables carry prescribed values (coordinates in an ordered group),
the y variables carry value zero and their residues ybar_j are independent
transcendentals over K.  The value of a polynomial is the minimum over its
terms of the term value; because the weights inside each block of the
group order are rationally independent, all terms attaining that minimum
share one x-exponent vector, and the residue of a unit is a rational
function in the ybar alone.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    NotAUnitError,
    PreconditionError,
    ValueOfZeroError,
)
from .fields import BaseField, Frozen
from .polyfield import RationalFunction, SparsePoly, ratfun_str
from .valuegroup import GroupElement, GroupOrder, compare, rational_rank


class MonomialPlace(Frozen):
    __slots__ = ("base", "order", "tau", "x_names", "y_names")

    def __init__(
        self,
        base: BaseField,
        order: GroupOrder,
        tau: int = 0,
        x_names: tuple[str, ...] = (),
        y_names: tuple[str, ...] = (),
    ):
        if tau < 0:
            raise PreconditionError("tau must be non-negative")
        if order.ngens + tau < 1:
            raise PreconditionError("the field needs at least one generator")
        if not x_names:
            x_names = tuple(f"x{i + 1}" for i in range(order.ngens))
        if not y_names:
            y_names = tuple(f"y{j + 1}" for j in range(tau))
        if len(x_names) != order.ngens or len(y_names) != tau:
            raise PreconditionError("variable name counts do not match the place")
        names = x_names + y_names
        if len(set(names)) != len(names):
            raise PreconditionError("ambient variable names must be distinct")
        set_base, set_order, set_tau, set_x_names, set_y_names, set_key = self._setters
        set_base(self, base)
        set_order(self, order)
        set_tau(self, tau)
        set_x_names(self, x_names)
        set_y_names(self, y_names)
        set_key(self, (base, order, tau, x_names, y_names))

    @property
    def rho(self) -> int:
        return self.order.ngens

    @property
    def nvars(self) -> int:
        return self.rho + self.tau

    @property
    def ambient_names(self) -> tuple[str, ...]:
        return self.x_names + self.y_names

    @property
    def residue_names(self) -> tuple[str, ...]:
        return tuple(f"{n}bar" for n in self.y_names)

    def term_value(self, exps) -> GroupElement:
        return self.order.element(exps[: self.rho])


class ResidueElement(Frozen):
    """A residue written as a rational function in the ybar variables."""

    __slots__ = ("place", "rep")

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __str__(self):
        return ratfun_str(self.rep, self.place.residue_names)


def value_of_poly(place: MonomialPlace, f: SparsePoly) -> tuple[GroupElement, tuple]:
    """Value of a nonzero polynomial and its minimal-value terms.

    Terms compare on the integer difference of their x-exponent vectors,
    block by block through the order's integer weight matrices; only the
    minimum becomes a GroupElement.  A zero difference is the only tie,
    since the weights in each block are independent.  The scan reads f's
    integers; only the minimal terms get their scalars.
    """
    base = place.base
    if (f.base is not base and f.base != base) or f.nvars != place.nvars:
        raise PreconditionError("polynomial does not live in the ambient ring")
    if f.is_zero:
        raise ValueOfZeroError("the zero polynomial has no value")
    order, rho = place.order, place.rho
    best_head = None
    best_terms: list = []
    for t in f.ints:
        head = t[0][:rho]
        if head == best_head:
            best_terms.append(t)
        elif best_head is None or order._sign_of([p - q for p, q in zip(head, best_head)]) < 0:
            best_head, best_terms = head, [t]
    if not base.p:
        d = f.denom
        best_terms = [(e, Fraction(c) if d == 1 else Fraction(c, d)) for e, c in best_terms]
    return place.term_value(best_head), tuple(best_terms)


def value_of_ratfun(place: MonomialPlace, f: RationalFunction) -> GroupElement:
    if f.is_zero:
        raise ValueOfZeroError("the zero element has no value")
    vn, _ = value_of_poly(place, f.num)
    vd, _ = value_of_poly(place, f.den)
    return vn - vd


def in_valuation_ring(place: MonomialPlace, f: RationalFunction) -> bool:
    if f.is_zero:
        return True
    return value_of_ratfun(place, f).sign() >= 0


def _residue_numerator(place: MonomialPlace, terms) -> SparsePoly:
    # minimal-value terms share their x-exponents, so the y-exponents differ
    rho, tau = place.rho, place.tau
    return SparsePoly._of_scalars(place.base, tau, {e[rho:]: c for e, c in terms})


def residue_of(place: MonomialPlace, f: RationalFunction) -> ResidueElement:
    """Residue of a unit of the valuation ring, in the ybar variables."""
    if f.is_zero:
        raise ValueOfZeroError("the zero element has no residue here: its value is not zero")
    vn, tn = value_of_poly(place, f.num)
    vd, td = value_of_poly(place, f.den)
    if compare(vn, vd) != 0:
        raise NotAUnitError(
            "element has nonzero value; only units have unit residues"
        )
    rep = RationalFunction.make(
        _residue_numerator(place, tn), _residue_numerator(place, td)
    )
    return ResidueElement(place, rep)


class AbhyankarReport(Frozen):
    __slots__ = (
        "transcendence_degree",
        "rational_rank",
        "residue_transcendence_degree",
        "is_abhyankar",
    )


def abhyankar_report(place: MonomialPlace) -> AbhyankarReport:
    """Compare trdeg of the field against rational rank plus residue trdeg."""
    trdeg = place.rho + place.tau
    rr = rational_rank(place.order)
    return AbhyankarReport(trdeg, rr, place.tau, trdeg == rr + place.tau)

"""Monomial places on rational function fields K(x_1..x_rho, y_1..y_tau).

The x variables carry prescribed values (coordinates in an ordered group),
the y variables carry value zero and their residues ybar_j are independent
transcendentals over K.  The value of a polynomial is the minimum over its
terms of the term value; because the weights inside each block of the
group order are rationally independent, all terms attaining that minimum
share one x-exponent vector, and the residue of a unit is a rational
function in the ybar alone.

The module also holds the place's verification context (``MonomialContext``,
made by ``MonomialPlace.make_context``), which evaluates the rows of a
triangular system exactly for ``checker.verify``.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .errors import (
    NotAUnitError,
    PreconditionError,
    ValueOfZeroError,
)
from .fields import BaseField, Frozen
from .polyfield import RationalFunction, SparsePoly, _settled, hasse_derivative, ratfun_str, substitute
from .valuegroup import GroupElement, GroupOrder, rational_rank


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
        Frozen.__init__(self, base, order, tau, x_names, y_names)

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

    def make_context(self) -> "MonomialContext":
        return MonomialContext(self)


class ResidueElement(Frozen):
    """A residue written as a rational function in the ybar variables."""

    __slots__ = ("place", "rep")

    @property
    def is_zero(self) -> bool:
        return self.rep.is_zero

    def __str__(self):
        return ratfun_str(self.rep, self.place.residue_names)


def value_of_poly(place: MonomialPlace, f: SparsePoly) -> tuple[GroupElement, tuple]:
    """Value of a nonzero polynomial and its minimal-value terms, as f's
    own (exponents, integer) pairs over f.denom, in f's grlex order.

    With three terms or more, an interval of each term's first-block value
    (``GroupOrder._may_be_least``) first drops the terms certainly above
    another; every term of the least value survives.  The survivors then
    compare exactly on the integer difference of their x-exponent vectors,
    block by block through the order's integer weight matrices; only the
    minimum becomes a GroupElement.  A zero difference is the only tie,
    since the weights in each block are independent.
    """
    base = place.base
    if (f.base is not base and f.base != base) or f.nvars != place.nvars:
        raise PreconditionError("polynomial does not live in the ambient ring")
    if f.is_zero:
        raise ValueOfZeroError("the zero polynomial has no value")
    order, rho = place.order, place.rho
    ints = f.ints
    if len(ints) > 2 and rho:
        ints = [t for t, keep in zip(ints, order._may_be_least([e for e, _ in ints])) if keep]
    best_head = None
    best_terms: list = []
    for t in ints:
        head = t[0][:rho]
        if head == best_head:
            best_terms.append(t)
        elif best_head is None or order._sign_of(list(map(sub, head, best_head))) < 0:
            best_head, best_terms = head, [t]
    # a head is a tuple of ints already
    return GroupElement(order, best_head, 1), tuple(best_terms)


def _quotient_value(place: MonomialPlace, num: SparsePoly, den: SparsePoly):
    """(v(num) - v(den), num's minimal terms, den's minimal terms) for
    nonzero num and den, the terms as ``value_of_poly`` returns them."""
    vn, tn = value_of_poly(place, num)
    vd, td = value_of_poly(place, den)
    return GroupElement(vn.order, tuple(map(sub, vn.nums, vd.nums)), 1), tn, td


def _residue_product(place: MonomialPlace, residues) -> RationalFunction:
    """The product of residues in the ybar variables, each given as the
    minimal terms of a numerator and a denominator with their sides'
    denominators.  The terms of one side share their x-exponents, so their
    y-exponents differ and keep f's grlex order."""
    rho, base, tau = place.rho, place.base, place.tau
    num = den = None
    for (tn, dn), (td, dd) in residues:
        n = _settled(base, tau, tuple((e[rho:], c) for e, c in tn), dn)
        d = _settled(base, tau, tuple((e[rho:], c) for e, c in td), dd)
        num, den = (n, d) if num is None else (num * n, den * d)
    return RationalFunction.make(num, den)


def value_of_ratfun(place: MonomialPlace, f: RationalFunction) -> GroupElement:
    if f.is_zero:
        raise ValueOfZeroError("the zero element has no value")
    return _quotient_value(place, f.num, f.den)[0]


def residue_of(place: MonomialPlace, f: RationalFunction) -> ResidueElement:
    """Residue of a unit of the valuation ring, in the ybar variables."""
    if f.is_zero:
        raise ValueOfZeroError("the zero element has no residue here: its value is not zero")
    value, tn, td = _quotient_value(place, f.num, f.den)
    if not value.is_zero:
        raise NotAUnitError(
            "element has nonzero value; only units have unit residues"
        )
    return ResidueElement(place, _residue_product(place, [((tn, f.num.denom), (td, f.den.denom))]))


class _Quotient(NamedTuple):
    """N/D as ``substitute`` leaves it before the normal form.  Whether it
    is zero, its value v(N) - v(D) and its initial forms need no common
    factor cancelled, so U2 and U3 read it as it is."""

    num: SparsePoly
    den: SparsePoly

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero


class MonomialContext:
    """Exact rational-function evaluation over a monomial place.

    ``eval_row`` and ``eval_ratfun`` stop before the normal form, ``equal``
    cross-multiplies, and ``residue_text`` normalises what it prints.
    """

    def __init__(self, place: MonomialPlace):
        self.place = place
        self.precision = None
        self.zero = place.order.zero()

    def ambient(self, rf: RationalFunction) -> RationalFunction:
        base = self.place.base
        if rf.nvars != self.place.nvars or (rf.base is not base and rf.base != base):
            raise PreconditionError("element does not live in the ambient field")
        return rf

    def eval_row(self, f: SparsePoly, args, var: int) -> tuple[_Quotient, _Quotient]:
        """f(args) and the partial derivative of f in x_var at args."""
        return _Quotient(*substitute(f, args)), _Quotient(*substitute(hasse_derivative(f, 1, var), args))

    def eval_ratfun(self, f: RationalFunction, args) -> _Quotient:
        (nn, nd), (dn, dd) = (substitute(g, args) for g in (f.num, f.den))
        if dn.is_zero:
            raise ZeroDivisionError("denominator vanishes")
        return _Quotient(nn * dd, nd * dn)

    def is_zero(self, a) -> bool:
        return a.is_zero

    def equal(self, a, b) -> bool:
        # by cross-multiplication, so a quotient needs no normal form
        return a.num * b.den == b.num * a.den

    def valuation(self, a: RationalFunction | _Quotient):
        """(value, residue) of a nonzero element; the residue is None unless
        the value is zero, and is then kept as the minimal terms of the
        numerator and the denominator, each with its side's denominator."""
        value, tn, td = _quotient_value(self.place, a.num, a.den)
        return value, (((tn, a.num.denom), (td, a.den.denom)) if value.is_zero else None)

    def residue_text(self, residues) -> str:
        """The product of the given residues, in the ybar variables ("1" for none)."""
        if not residues:
            return "1"
        return ratfun_str(_residue_product(self.place, residues), self.place.residue_names)


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

"""Truncated Laurent series with explicit precision tracking.

A series stores coefficients for exponents offset .. offset+len-1 and a
precision bound: every exponent below ``precision`` is known, everything
from ``precision`` on is unknown.  Arithmetic propagates the bound
pessimistically, so a result never claims more exponents than the inputs
justify.  A series whose stored coefficients are all zero may still be
nonzero beyond its precision; order and residue queries distinguish the
two situations honestly.

Storage.  A ``TruncatedSeries`` is t^offset * sum(row[i] t^i) / denom +
O(t^precision): ``row`` is a tuple of integers whose first and last
entries are nonzero and lie below the precision, ``denom`` a positive
integer coprime to them; over F_p the entries are residues over 1.  The
zero series is the empty row over 1 at offset 0.  The form is unique, so
``==``, ``hash`` and pickling are structural.  ``coeffs`` reads the
series as canonical scalars (``Fraction`` over Q, residues over F_p), a
view built on first use and kept, for printers and tests.

Arithmetic runs on the rows with the kernels of ``dense`` (Kronecker
products, Newton inverses, long-division quotients), and
``TruncatedSeries._canon`` brings each result to that form once: ``% p``
over F_p, one gcd with the denominator over Q.  Sums align the two rows
over the lcm of their denominators.  A quotient a / b is a * b.inverse(),
coefficients and precision alike; when the divisor's row, cut to the
quotient's length, or that length has at most ``dense._SCHOOLBOOK``
entries it comes from ``dense.quotient`` in one pass, otherwise from the
Newton inverse and one product.  ``eval_poly_at_series`` makes one pass
over the terms of a polynomial into one integer accumulator: a power with
a one-entry row (every power of t, any monomial argument) scales the
term, and only longer rows are multiplied.  The powers come from a power
table that a caller such as ``SeriesContext`` shares between calls;
``eval_ratfun_at_series`` scales by 1/c for a constant denominator c
instead of dividing by a series.

Places.  A ``DiscreteSeriesPlace`` is K0(t, gens) with each generator a
truncated series, and ``SeriesContext`` its verification context.  A
``DiscretePresentation`` gives z by a monic minimal polynomial and a
residue, from which ``realize_presentation`` lifts it.  A request on a
series place, or the check of a series certificate, needs no more.
"""

from __future__ import annotations

import operator
from functools import reduce
from math import lcm

from . import dense
from .errors import InsufficientPrecisionError, NotInValuationRingError, PreconditionError, ValueOfZeroError
from .fields import BaseField, Frozen, Scalar, clear_denominators
from .polyfield import RationalFunction, SparsePoly, hasse_derivative, power


def _product_bounds(low_a: int, prec_a: int, low_b: int, prec_b: int) -> tuple[int, int]:
    """Lower bound and precision of a product, from those of its factors.

    The precision is what both factors justify.  When both factors have a
    nonzero leading term, so does the product, at the sum of their
    bounds, unless that sum reaches the precision; when either is zero to
    its precision, the sum is at least the precision.
    """
    prec = min(prec_a + low_b, prec_b + low_a)
    return min(low_a + low_b, prec), prec


class TruncatedSeries(Frozen):
    """t^offset * sum(row[i] t^i) / denom + O(t^precision)."""

    __slots__ = ("base", "offset", "row", "denom", "precision", "_coeffs")

    def __init__(self, base: BaseField, offset: int, row: tuple, denom: int, precision: int):
        set_base, set_offset, set_row, set_denom, set_precision, set_coeffs, set_key = self._setters
        set_base(self, base)
        set_offset(self, offset)
        set_row(self, row)
        set_denom(self, denom)
        set_precision(self, precision)
        set_coeffs(self, None)
        set_key(self, (base, offset, row, denom, precision))

    def __repr__(self):
        return (
            f"TruncatedSeries(base={self.base!r}, offset={self.offset!r}, "
            f"coeffs={self.coeffs!r}, precision={self.precision!r})"
        )

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The stored coefficients as canonical scalars: over F_p ``row``
        itself, over Q a view built on first use and kept."""
        view = self._coeffs
        if view is None:
            if self.base.p:
                return self.row
            view = tuple(self.base.settle_row(self.row, self.denom))
            TruncatedSeries._coeffs.__set__(self, view)
        return view

    @staticmethod
    def _canon(base: BaseField, offset: int, row, den: int, precision: int) -> "TruncatedSeries":
        """Trusted: the canonical form of t^offset * row / den + O(t^precision),
        for integers row over a positive den (1 over F_p)."""
        cut = precision - offset
        if len(row) > cut:
            row = row[: max(0, cut)]
        p = base.p
        if p:
            row = [c % p for c in row]
        lo, hi = 0, len(row)
        while lo < hi and not row[lo]:
            lo += 1
        while hi > lo and not row[hi - 1]:
            hi -= 1
        if lo == hi:
            return TruncatedSeries(base, 0, (), 1, precision)
        row = row[lo:hi]
        if den != 1:
            row, den = dense.reduce(row, den, 0)
        return TruncatedSeries(base, offset + lo, tuple(row), den, precision)

    @staticmethod
    def make(base: BaseField, offset: int, coeffs, precision: int) -> "TruncatedSeries":
        scalars = [base.coerce(c) for c in coeffs]
        row, den = (scalars, 1) if base.p else clear_denominators(scalars)
        return TruncatedSeries._canon(base, offset, row, den, precision)

    @staticmethod
    def zero(base: BaseField, precision: int) -> "TruncatedSeries":
        return TruncatedSeries(base, 0, (), 1, precision)

    @staticmethod
    def constant(base: BaseField, c, precision: int) -> "TruncatedSeries":
        return TruncatedSeries.make(base, 0, [c], precision)

    @staticmethod
    def monomial(base: BaseField, k: int, precision: int, c=1) -> "TruncatedSeries":
        return TruncatedSeries.make(base, k, [c], precision)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero_to_precision(self) -> bool:
        return not self.row

    def order(self) -> int | None:
        """Exponent of the lowest known nonzero coefficient, None if all zero."""
        return self.offset if self.row else None

    def known_order(self) -> int:
        o = self.order()
        if o is None:
            raise InsufficientPrecisionError(
                "series is zero to its precision; its order is undecided",
                needed=self.precision + 1,
            )
        return o

    def coefficient(self, k: int) -> Scalar:
        if k >= self.precision:
            raise InsufficientPrecisionError(
                f"coefficient of exponent {k} lies beyond precision {self.precision}",
                needed=k + 1,
            )
        i = k - self.offset
        if i < 0 or i >= len(self.row):
            return self.base.zero
        return self.base.settle_row([self.row[i]], self.denom)[0]

    def residue(self) -> Scalar:
        o = self.order()
        if o is not None and o < 0:
            raise NotInValuationRingError("series has negative order")
        if self.precision < 1:
            raise InsufficientPrecisionError(
                "precision does not reach exponent 0", needed=1
            )
        return self.coefficient(0)

    # -- arithmetic ------------------------------------------------------

    def _lower_bound(self) -> int:
        # true order is >= this value
        return self.offset if self.row else self.precision

    def _mate(self, other: "TruncatedSeries"):
        if self.base != other.base:
            raise PreconditionError("series over different base fields")

    def _combine(self, other: "TruncatedSeries", op) -> "TruncatedSeries":
        """self op other for op = operator.add or operator.sub."""
        self._mate(other)
        prec = min(self.precision, other.precision)
        lo = min(self._lower_bound(), other._lower_bound(), prec)
        den = self.denom if self.denom == other.denom else lcm(self.denom, other.denom)
        acc = [0] * (prec - lo)
        for s, k in ((self, den // self.denom), (other, op(0, den // other.denom))):
            row = s.row[: max(0, prec - s.offset)]
            if row:
                i = s.offset - lo
                acc[i : i + len(row)] = [x + k * y for x, y in zip(acc[i : i + len(row)], row)]
        return TruncatedSeries._canon(self.base, lo, acc, den, prec)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, operator.add)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "TruncatedSeries":
        return self.scale(-1)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._mate(other)
        _, prec = _product_bounds(
            self._lower_bound(), self.precision, other._lower_bound(), other.precision
        )
        lo = self.offset + other.offset
        # a zero factor gives the empty row; otherwise prec - lo >= 1, as
        # each offset lies below its own precision
        row = dense.mul(self.row, other.row, 0, prec - lo)
        return TruncatedSeries._canon(self.base, lo, row, self.denom * other.denom, prec)

    def scale(self, c) -> "TruncatedSeries":
        c = self.base.coerce(c)
        row, den = dense.scale(self.row, c.numerator, 0), self.denom * c.denominator
        return TruncatedSeries._canon(self.base, self.offset, row, den, self.precision)

    def shift(self, k: int) -> "TruncatedSeries":
        if not self.row:
            return TruncatedSeries.zero(self.base, self.precision + k)
        return TruncatedSeries(self.base, self.offset + k, self.row, self.denom, self.precision + k)

    def _check_invertible(self):
        if not self.row:
            raise InsufficientPrecisionError(
                "cannot invert a series that is zero to its precision",
                needed=self.precision + 1,
            )

    def inverse(self) -> "TruncatedSeries":
        self._check_invertible()
        o, d = self.offset, self.denom
        # 1/(t^o U/d) = t^-o d/U, with U's inverse known below the precision of U
        inv, den = dense.inverse(self.row, self.precision - o, self.base.characteristic)
        return TruncatedSeries._canon(self.base, -o, dense.scale(inv, d, 0), den, self.precision - 2 * o)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """self * other.inverse(), coefficients and precision alike; by long
        division when the divisor's row, cut to the quotient's length, or
        that length is short."""
        other._check_invertible()
        self._mate(other)
        o = other.offset
        # the bounds of self * t^-o (1/U): the inverse starts at -o and is
        # known to precision other.precision - 2*o
        prec = min(self.precision - o, other.precision - 2 * o + self._lower_bound())
        lo = self.offset - o
        if min(len(other.row), prec - lo) > dense._SCHOOLBOOK:
            return self * other.inverse()
        row, den = dense.quotient(self.row, other.row, prec - lo, self.base.characteristic)
        row = dense.scale(row, other.denom, 0)
        return TruncatedSeries._canon(self.base, lo, row, self.denom * den, prec)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return TruncatedSeries.constant(self.base, 1, self.precision)
        return power(self, n)

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise PreconditionError("cannot raise precision by truncation")
        return TruncatedSeries._canon(self.base, self.offset, self.row, self.denom, precision)

    def __str__(self):
        return series_str(self)


def series_str(s: TruncatedSeries, name: str = "t") -> str:
    """Render as  t^k*(c0 + c1*t + ...) + O(t^N)."""
    tail = f"O({name}^{s.precision})"
    if not s.coeffs:
        return tail
    inner = s.base.sum_str(
        (c, "" if i == 0 else name if i == 1 else f"{name}^{i}")
        for i, c in enumerate(s.coeffs) if c
    )
    if s.offset == 0:
        return f"{inner} + {tail}"
    head = name if s.offset == 1 else f"{name}^{s.offset}"
    return f"{head}*({inner}) + {tail}"


def poly_to_series(p: SparsePoly, precision: int) -> TruncatedSeries:
    """Exact expansion of a univariate polynomial, cut at the precision."""
    if p.nvars != 1:
        raise PreconditionError("series expansion needs a univariate polynomial")
    return TruncatedSeries._canon(p.base, 0, dense.of_poly(p, precision), p.denom, precision)


def ratfun_to_series(f: RationalFunction, precision: int) -> TruncatedSeries:
    """Expand a univariate rational function to the requested precision."""
    if f.nvars != 1:
        raise PreconditionError("series expansion needs a univariate argument")
    if f.num.is_zero:
        return TruncatedSeries.zero(f.base, precision)
    ord_den = min(e[0] for e, _ in f.den.ints)
    ord_num = min(e[0] for e, _ in f.num.ints)
    slack = precision + 2 * ord_den - min(ord_num, 0) + 1
    num = poly_to_series(f.num, max(slack, 1))
    den = poly_to_series(f.den, max(slack, 1))
    return (num / den).truncate(precision)


def _power(powers: dict, a: TruncatedSeries, k: int, base: BaseField) -> TruncatedSeries:
    """a ** k from the table, built upwards on first use."""
    table = powers.get(id(a))
    if table is None:
        if a.base != base:
            raise PreconditionError("series over different base fields")
        # the entry holds a itself, so its id stays a's while the table lives
        table = powers[id(a)] = [None, a]
    while len(table) <= k:
        table.append(table[-1] * a)
    return table[k]


def eval_poly_at_series(
    p: SparsePoly, args, precision: int, powers: dict | None = None
) -> TruncatedSeries:
    """Evaluate a multivariate polynomial at series arguments.

    Each term takes the powers of the arguments its nonzero exponents name.
    A power whose row has one entry only scales the term's coefficient and
    shifts its offset; the rows of the others are multiplied, cut to the
    result's precision, and the scaled product goes into one dense integer
    accumulator.  The result carries the precision of the sum of the terms
    constant(c) * a1**k1 * a2**k2 * ..., with ``_product_bounds`` run per
    factor.

    ``powers`` is the table those powers come from: it maps id(a) to a and
    the powers of a built so far, and callers that evaluate many
    polynomials at the same arguments pass one table to every call.  None
    gives a table for this call alone.
    """
    if len(args) != p.nvars:
        raise PreconditionError("wrong number of series arguments")
    base = p.base
    if powers is None:
        powers = {}
    terms = []  # (offset, integer scale, factor rows of two or more entries, denominator)
    prec, low0 = precision, min(0, precision)
    for e, c in p.ints:
        # lower bound and precision of the chain constant(c) * a1**k1 * ...
        low, top = low0, precision
        off, d, rows = 0, p.denom, []
        for i, k in enumerate(e):
            if k:
                s = _power(powers, args[i], k, base)
                low, top = _product_bounds(low, top, s._lower_bound(), s.precision)
                row = s.row
                if len(row) == 1:
                    c *= row[0]
                elif not row:
                    c = 0
                else:
                    rows.append(row)
                off += s.offset
                d *= s.denom
        prec = min(prec, top)
        if c:
            terms.append((off, c, rows, d))
    terms = [term for term in terms if term[0] < prec]
    lo = min((term[0] for term in terms), default=prec)
    den = lcm(*(term[3] for term in terms))
    acc = [0] * (prec - lo)
    for off, c, rows, d in terms:
        f, i = c * (den // d), off - lo
        if not rows:  # a monomial: one entry
            acc[i] += f
            continue
        row = rows[0][: prec - off]
        for other in rows[1:]:
            row = dense.mul(row, other, 0, prec - off)
        acc[i : i + len(row)] = [x + f * y for x, y in zip(acc[i : i + len(row)], row)]
    return TruncatedSeries._canon(base, lo, acc, den, prec)


def eval_ratfun_at_series(
    f: RationalFunction, args, precision: int, powers: dict | None = None
) -> TruncatedSeries:
    """num / den at series arguments, both evaluated through one power table.

    A constant denominator c only scales the numerator by 1/c: the result
    is num * constant(1/c, precision), coefficients and precision alike,
    with no series of c built or inverted.
    """
    if powers is None:
        powers = {}
    num = eval_poly_at_series(f.num, args, precision, powers)
    if not f.den.is_constant:
        return num / eval_poly_at_series(f.den, args, precision, powers)
    # constant(1/c, precision) starts at exponent 0, or is zero when precision < 1
    _, prec = _product_bounds(num._lower_bound(), num.precision, min(0, precision), precision)
    # 1/(c/d) = d/c for the constant denominator's integer c over d
    ((_, c),), d, p = f.den.ints, f.den.denom, f.base.p
    k, q = (pow(c, -1, p), 1) if p else (d, c) if c > 0 else (-d, -c)
    return TruncatedSeries._canon(f.base, num.offset, dense.scale(num.row, k, 0), num.denom * q, prec)


# ---------------------------------------------------------------------------
# Discrete series places and their verification context

DEFAULT_PRECISION = 32


class DiscreteSeriesPlace(Frozen):
    """K0(t, gens) with each generator realized as a truncated series."""

    __slots__ = ("base", "uniformizer", "gen_names", "gen_series", "precision")

    def __init__(
        self, base: BaseField, uniformizer="t", gen_names=(), gen_series=(), precision=DEFAULT_PRECISION
    ):
        if precision < 1:
            raise PreconditionError("precision must be at least 1")
        if len(gen_names) != len(gen_series):
            raise PreconditionError("generator names and series do not match up")
        names = (uniformizer,) + gen_names
        if len(set(names)) != len(names):
            raise PreconditionError("ambient generator names must be distinct")
        for name, s in zip(gen_names, gen_series):
            if s.base != base:
                raise PreconditionError(f"series for {name!r} is over the wrong field")
            if s.precision < precision:
                raise PreconditionError(
                    f"series for {name!r} is known to precision {s.precision}, "
                    f"the place claims {precision}"
                )
            o = s.order()
            if o is not None and o < 0:
                raise PreconditionError(f"generator {name!r} has negative value")
        Frozen.__init__(self, base, uniformizer, gen_names, gen_series, precision)

    @property
    def ambient_names(self) -> tuple[str, ...]:
        return (self.uniformizer,) + self.gen_names

    @property
    def nvars(self) -> int:
        return 1 + len(self.gen_names)

    def make_context(self) -> "SeriesContext":
        return SeriesContext(self)


class SeriesContext:
    """Evaluation of ambient rational functions into truncated series, at
    the place's precision.

    The context keeps one power table for its lifetime: ``ambient`` and
    ``eval_poly`` both evaluate through it, so a power a^k of an argument
    is built once per context rather than once per call.  An element whose
    denominator is a constant c is its numerator scaled by 1/c, with no
    series inverse.
    """

    def __init__(self, place: DiscreteSeriesPlace):
        self.place = place
        self.precision = precision = place.precision
        self.zero = 0
        t = TruncatedSeries.monomial(place.base, 1, precision)
        self.args = [t] + [g.truncate(precision) for g in place.gen_series]
        self.powers = {}  # the power table of every argument evaluated so far

    def ambient(self, rf: RationalFunction) -> TruncatedSeries:
        if rf.nvars != self.place.nvars or rf.base != self.place.base:
            raise PreconditionError("element does not live in the ambient field")
        return eval_ratfun_at_series(rf, self.args, self.precision, self.powers)

    def eval_poly(self, f: SparsePoly, args) -> TruncatedSeries:
        return eval_poly_at_series(f, args, self.precision, self.powers)

    def eval_ratfun(self, f: RationalFunction, args) -> TruncatedSeries:
        try:
            return eval_ratfun_at_series(f, args, self.precision, self.powers)
        except InsufficientPrecisionError:
            # its one way to fail: a denominator zero to precision has no inverse
            raise ZeroDivisionError("denominator vanishes to precision") from None

    def is_zero(self, a) -> bool:
        return a.is_zero_to_precision

    def equal(self, a, b) -> bool:
        return (a - b).is_zero_to_precision

    def valuation(self, a: TruncatedSeries):
        """(order, residue) of a series nonzero to precision; the residue is
        None unless the order is zero."""
        o = a.known_order()
        return o, (a.residue() if o == 0 else None)

    def residue_text(self, residues) -> str:
        """The product of the given residues, as a scalar of K0."""
        base = self.place.base
        return base.scalar_str(reduce(base.mul, residues, base.one))


def series_element_value(place: DiscreteSeriesPlace, f: RationalFunction) -> int:
    """The order of an ambient element's series: the value query of ``cli``."""
    s = place.make_context().ambient(f)
    if f.is_zero:
        raise ValueOfZeroError("the zero element has no value")
    # f's series loses a fixed number of exponents, so the place's next
    # precision is the first that can know one more
    if s.is_zero_to_precision:
        msg = "series is zero to its precision; its order is undecided"
        raise InsufficientPrecisionError(msg, needed=place.precision + 1)
    return s.order()


# ---------------------------------------------------------------------------
# Presentations, realized by Hensel lifting


def _horner(f: SparsePoly, z: TruncatedSeries, n: int) -> TruncatedSeries:
    """f(t, z) below t^n, for f in (t, X) and a series z of order >= 0 known
    to at least n, by Horner's rule in X on f's rows in t.  With z = Z/q,
    the homogeneous form sum_j F_j Z^j q^(deg - j) keeps every step on
    integers; the result is that over f.denom * q^deg."""
    p, q, rows = f.base.characteristic, z.denom, dense.of_poly(f, n)
    Z = [0] * z.offset + list(z.row)
    acc, qk = [], 1
    for row in reversed(rows):
        acc = dense.add(dense.mul(acc, Z, p, n), dense.scale(row, qk, p), p)
        qk *= q
    return TruncatedSeries._canon(f.base, 0, acc, f.denom * q ** (len(rows) - 1), n)


def hensel_lift_root(f: SparsePoly, x0, precision: int) -> TruncatedSeries:
    """Root series of f(t, X) starting from a simple residue root x0.

    Requires f(0, x0) = 0 and (df/dX)(0, x0) != 0; Newton steps double the
    correct precision each round, and remain valid in characteristic p
    because only the first derivative is involved.  The inverse of f'(z)
    is carried along as a second Newton iterate, one doubling per round,
    instead of being recomputed from scratch.  Each round evaluates f and
    f' at z by Horner's rule in X (``_horner``), so no power of z is formed.
    """
    if f.nvars != 2:
        raise PreconditionError("expected a polynomial in (t, X)")
    if precision < 1:
        raise PreconditionError("precision must be at least 1")
    base = f.base
    x0 = base.coerce(x0)
    if f.evaluate((0, x0)) != 0:
        raise PreconditionError("x0 is not a root of the reduction")
    dfdx = hasse_derivative(f, 1, var=1)
    d0 = dfdx.evaluate((0, x0))
    if d0 == 0:
        raise PreconditionError("x0 is not a simple root of the reduction; the root does not lift")
    z = TruncatedSeries.constant(base, x0, 1)
    w = TruncatedSeries.constant(base, base.inv(d0), 1)
    two = TruncatedSeries.constant(base, 2, precision)
    p = 1
    while p < precision:
        p2 = min(2 * p, precision)
        # the known coefficients form a polynomial approximant; Newton
        # corrects everything beyond the old precision automatically.
        # f(zt) vanishes below p, so w = 1/f'(z) below p settles z below p2
        zt = TruncatedSeries(base, z.offset, z.row, z.denom, p2)
        z = zt - _horner(f, zt, p2) * w
        if p2 < precision:
            # the second Newton iterate, w <- w (2 - f'(z) w): 1/f'(z) below p2
            wt = TruncatedSeries(base, w.offset, w.row, w.denom, p2)
            w = wt * (two - _horner(dfdx, z, p2) * wt)
        p = p2
    return z


class DiscretePresentation(Frozen):
    """K0(t) or K0(t, z) with z given by a monic minimal polynomial and a residue."""

    __slots__ = ("base", "uniformizer", "gen_name", "min_poly", "residue")

    def __init__(self, base: BaseField, uniformizer="t", gen_name="z", min_poly=None, residue=0):
        m = min_poly
        if m is not None:
            if m.nvars != 2 or m.base != base:
                raise PreconditionError("min_poly must be a polynomial in (t, X) over the base field")
            if m.is_zero or m.degree_in(1) < 1:
                raise PreconditionError("min_poly must involve X")
            if uniformizer == gen_name:
                raise PreconditionError("generator names must be distinct")
        Frozen.__init__(self, base, uniformizer, gen_name, min_poly, residue)

    @property
    def ambient_names(self) -> tuple[str, ...]:
        if self.min_poly is None:
            return (self.uniformizer,)
        return (self.uniformizer, self.gen_name)


def _monic_min_poly(m: SparsePoly) -> SparsePoly:
    """Scale so the X^D coefficient is 1; it must be a nonzero constant."""
    base = m.base
    d = m.degree_in(1)
    lead_terms = [(e, c) for e, c in m.ints if e[1] == d]
    if len(lead_terms) != 1 or lead_terms[0][0][0] != 0:
        raise PreconditionError(
            "the X-leading coefficient of min_poly must be a nonzero constant"
        )
    # the coefficient is c / m.denom
    c = lead_terms[0][1]
    if c == m.denom:
        return m
    return m.scale(base.div(m.denom, c))


def realize_presentation(
    pres: DiscretePresentation, precision: int = DEFAULT_PRECISION
) -> DiscreteSeriesPlace:
    """The series place, with z lifted from its residue, which must be a
    simple root of the reduction; the other roots of the reduction may be
    repeated or lie outside K0."""
    base = pres.base
    if pres.min_poly is None:
        return DiscreteSeriesPlace(base, pres.uniformizer, (), (), precision)
    z = hensel_lift_root(_monic_min_poly(pres.min_poly), pres.residue, precision)
    return DiscreteSeriesPlace(base, pres.uniformizer, (pres.gen_name,), (z,), precision)

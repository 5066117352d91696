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
products, Newton inverses), and ``TruncatedSeries._canon`` brings each
result to that form once: ``% p`` over F_p, one gcd with the denominator
over Q.  Sums align the two rows over the lcm of their denominators.
``eval_poly_at_series`` adds every term of a polynomial into one integer
accumulator, with the powers of its arguments from a power table that a
caller such as ``completion.SeriesContext`` shares between calls;
``eval_ratfun_at_series`` scales by 1/c for a constant denominator c
instead of inverting a series.
"""

from __future__ import annotations

import operator
from math import lcm

from . import dense
from .errors import InsufficientPrecisionError, NotInValuationRingError, PreconditionError
from .fields import BaseField, Frozen, Scalar, clear_denominators
from .polyfield import RationalFunction, SparsePoly, power


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
                needed=self.precision,
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

    def inverse(self) -> "TruncatedSeries":
        if not self.row:
            raise InsufficientPrecisionError(
                "cannot invert a series that is zero to its precision",
                needed=self.precision,
            )
        o, d = self.offset, self.denom
        # 1/(t^o U/d) = t^-o d/U, with U's inverse known below the precision of U
        inv, den = dense.inverse(self.row, self.precision - o, self.base.characteristic)
        return TruncatedSeries._canon(self.base, -o, dense.scale(inv, d, 0), den, self.precision - 2 * o)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self * other.inverse()

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


def equal_to_precision(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    return (a - b).is_zero_to_precision


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

    Each term multiplies only the rows of the powers of the arguments its
    nonzero exponents name, cut to the result's precision; its coefficient
    scales that product as it goes into one dense integer accumulator.  The
    result carries the precision of the sum of the terms
    constant(c) * a1**k1 * a2**k2 * ...

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
    terms = []  # (integer coefficient, the powers it multiplies)
    prec = precision
    for e, c in p.ints:
        factors = [_power(powers, args[i], k, base) for i, k in enumerate(e) if k]
        # lower bound and precision of the chain constant(c) * factors[0] * ...
        low, top = min(0, precision), precision
        for s in factors:
            low, top = _product_bounds(low, top, s._lower_bound(), s.precision)
        prec = min(prec, top)
        terms.append((c, factors))
    rows = []  # (offset, integer row, scale numerator, denominator)
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

"""Truncated Laurent series with explicit precision tracking.

A series stores coefficients for exponents offset .. offset+len-1 and a
precision bound: every exponent below ``precision`` is known, everything
from ``precision`` on is unknown.  Arithmetic propagates the bound
pessimistically, so a result never claims more exponents than the inputs
justify.  A series whose stored coefficients are all zero may still be
nonzero beyond its precision; order and residue queries distinguish the
two situations honestly.

The arithmetic runs on Python integers, with one code path per
operation for both kinds of field.

- Coefficients.  ``BaseField.int_row`` (see ``fields``) turns a
  coefficient list into an integer row over one denominator: over F_p the
  residues themselves over 1, over Q the numerators scaled to the lcm of
  the denominators.  ``BaseField.settle_row`` turns a row back into
  canonical scalars: one ``% p`` per coefficient over F_p, one
  ``Fraction(c, d)`` per coefficient over Q.
- Products (``_convolve``): when the shorter row has at most
  ``_SCHOOLBOOK`` = 8 entries, the schoolbook loop of ``dense.mul``, cut
  at n; most products here have rows of one to four entries, where
  packing costs more than the loop.  Otherwise one integer convolution by
  Kronecker substitution.  Each row is packed into one integer as its
  value at 2^w, the two integers are multiplied once, and the product is
  read back w bits at a time.  A coefficient of the convolution is a sum
  of at most min(len a, len b) products, so ``bound = max|a| * max|b| *
  min(len a, len b)`` bounds every output, and every input too when both
  rows are nonzero; w is a whole number of bytes with bound < 2^(w-1).
  When a row has a negative entry, every digit is biased by 2^(w-1) on the
  way in and on the way out.  A biased digit c + 2^(w-1) lies in
  [0, 2^w), so no digit borrows from or carries into its neighbour, and
  each w-bit field of the biased product is exactly one coefficient plus
  2^(w-1): the signed unpack is exact.  Rows with no negative entry need
  no bias.
- Sums (``_combine``): the overlap of two aligned slices, added or
  subtracted in place.
- Inverses (``_inverse``): Newton's g <- g + g(1 - u g) on that product,
  doubling the known coefficients each round.  The iterate stays one
  integer row, reduced after every round (``% p``, or by the gcd with its
  denominator), so no intermediate swells.
- Polynomial evaluation (``eval_poly_at_series``): each term multiplies
  the powers of the arguments its nonzero exponents name, as integer rows,
  and adds the product, scaled by its coefficient, into one dense integer
  accumulator over a common denominator, settled once.  The powers come
  from a power table keyed by id(a): an entry holds a itself (so no other
  series takes over its id while the table lives) and a, a^2, ... with
  their integer rows, each a^(k+1) built as a^k * a on first use.  A
  caller that evaluates many polynomials at the same arguments, such as
  ``completion.SeriesContext``, keeps one table for all of them; without
  one, a call builds its own.  ``eval_ratfun_at_series`` shares the table
  between numerator and denominator and, when the denominator is a
  constant c, scales the numerator by 1/c with the precision of the
  product num * constant(1/c, precision), instead of inverting a series.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, lcm

from . import dense
from .errors import InsufficientPrecisionError, NotInValuationRingError, PreconditionError
from .fields import BaseField, Scalar
from .polyfield import RationalFunction, SparsePoly, power


def _reduced(base: BaseField, nums: list[int], den: int) -> tuple[list[int], int]:
    """The same row with its integers made small: % p, or divided by their gcd with den."""
    if base.p:
        p = base.p
        return [c % p for c in nums], 1
    g = gcd(den, *nums)
    return [c // g for c in nums], den // g


# longest shorter operand that _convolve multiplies by the schoolbook loop;
# on the products of the series pipeline the loop stays faster up to about
# 12 entries, but on rows of 30-bit integers Kronecker wins from about 8
_SCHOOLBOOK = 8


def _convolve(a: list[int], b: list[int], n: int) -> list[int]:
    """The coefficients below n of the product of two integer coefficient lists.

    The list stops where the product does, after min(n, len(a) + len(b) - 1)
    entries.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) <= _SCHOOLBOOK:
        return dense.mul(a, b, 0)[:n]
    n = min(n, len(a) + len(b) - 1)
    low_a, low_b = min(a), min(b)
    bound = max(max(a), -low_a) * max(max(b), -low_b) * min(len(a), len(b))
    if not bound:
        return [0] * n
    size = (bound.bit_length() + 8) >> 3  # bytes per digit, so that bound < 2^(8*size - 1)
    # nonnegative digits cannot borrow; signed ones are biased into [0, 2^(8*size))
    bias = 0 if low_a >= 0 <= low_b else 1 << ((size << 3) - 1)
    product = _pack(a, size, bias) * _pack(b, size, bias)
    if bias:
        product += bias * _ones(size, n)
    width = size * n
    digits = (product & ((1 << (width << 3)) - 1)).to_bytes(width, "little")
    return [int.from_bytes(digits[i : i + size], "little") - bias for i in range(0, width, size)]


def _ones(size: int, n: int) -> int:
    """sum(2^(8*size*i) for i < n): a 1 in each of n digits of size bytes."""
    return int.from_bytes((b"\x01" + bytes(size - 1)) * n, "little")


def _pack(coeffs: list[int], size: int, bias: int) -> int:
    """sum(c_i * 2^(8*size*i)), from the bytes of the digits c_i + bias."""
    digits = b"".join([(c + bias).to_bytes(size, "little") for c in coeffs])
    packed = int.from_bytes(digits, "little")
    return packed - bias * _ones(size, len(coeffs)) if bias else packed


def _product_bounds(low_a: int, prec_a: int, low_b: int, prec_b: int) -> tuple[int, int]:
    """Lower bound and precision of a product, from those of its factors.

    The precision is what both factors justify.  When both factors have a
    nonzero leading term, so does the product, at the sum of their
    bounds, unless that sum reaches the precision; when either is zero to
    its precision, the sum is at least the precision.
    """
    prec = min(prec_a + low_b, prec_b + low_a)
    return min(low_a + low_b, prec), prec


def _inverse(base: BaseField, u, n: int) -> list:
    """1/u below exponent n, for u[0] != 0.

    Newton's g <- g + g(1 - u g): when g is 1/u below t^k and
    u g = 1 + t^k r, the coefficients k .. 2k-1 of 1/u are those of -g r.
    As g stops at t^k, r only meets u from t^1 on, so a constant u needs
    no product at all.
    """
    nu, du = base.int_row(u[1:n])  # the coefficients of u from t^1 on
    ng, dg = base.int_row([base.inv(u[0])])
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        r = _convolve(nu, ng, k2 - 1)[k - 1 :]  # over du * dg
        tail = _convolve(ng, r, k2 - k)  # g r, over dg * du * dg
        scale = du * dg
        ng = [c * scale for c in ng] + [-c for c in tail] + [0] * (k2 - k - len(tail))
        ng, dg = _reduced(base, ng, dg * scale)
        k = k2
    return base.settle_row(ng, dg)


@dataclass(frozen=True)
class TruncatedSeries:
    base: BaseField
    offset: int
    coeffs: tuple[Scalar, ...]
    precision: int

    @staticmethod
    def make(base: BaseField, offset: int, coeffs, precision: int) -> "TruncatedSeries":
        return TruncatedSeries._trimmed(base, offset, [base.coerce(c) for c in coeffs], precision)

    @staticmethod
    def _trimmed(base: BaseField, offset: int, coeffs: list, precision: int) -> "TruncatedSeries":
        """make for coefficients already in canonical form."""
        # drop anything at or beyond the precision bound, then trim zeros
        hi = min(len(coeffs), max(0, precision - offset))
        lo = 0
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return TruncatedSeries(base, 0, (), precision)
        return TruncatedSeries(base, offset + lo, tuple(coeffs[lo:hi]), precision)

    @staticmethod
    def zero(base: BaseField, precision: int) -> "TruncatedSeries":
        return TruncatedSeries(base, 0, (), precision)

    @staticmethod
    def constant(base: BaseField, c, precision: int) -> "TruncatedSeries":
        return TruncatedSeries.make(base, 0, [c], precision)

    @staticmethod
    def monomial(base: BaseField, k: int, precision: int, c=1) -> "TruncatedSeries":
        return TruncatedSeries.make(base, k, [c], precision)

    # -- queries ---------------------------------------------------------

    @property
    def is_zero_to_precision(self) -> bool:
        return not self.coeffs

    def order(self) -> int | None:
        """Exponent of the lowest known nonzero coefficient, None if all zero."""
        return None if not self.coeffs else self.offset

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
        if k < self.offset or k >= self.offset + len(self.coeffs):
            return self.base.zero
        return self.coeffs[k - self.offset]

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
        return self.offset if self.coeffs else self.precision

    def _mate(self, other: "TruncatedSeries"):
        if self.base != other.base:
            raise PreconditionError("series over different base fields")

    def _combine(self, other: "TruncatedSeries", op) -> "TruncatedSeries":
        """self op other for op = operator.add or operator.sub, on aligned slices."""
        self._mate(other)
        prec = min(self.precision, other.precision)
        lo = min(self._lower_bound(), other._lower_bound(), prec)
        out = [self.base.zero] * (prec - lo)
        mine = self.coeffs[: max(0, prec - self.offset)]
        i = self.offset - lo
        out[i : i + len(mine)] = mine
        theirs = other.coeffs[: max(0, prec - other.offset)]
        j = other.offset - lo
        mixed = map(op, out[j : j + len(theirs)], theirs)
        p = self.base.p
        out[j : j + len(theirs)] = [c % p for c in mixed] if p else list(mixed)
        return TruncatedSeries._trimmed(self.base, lo, out, prec)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, operator.add)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "TruncatedSeries":
        p = self.base.p
        coeffs = tuple(-c % p for c in self.coeffs) if p else tuple(-c for c in self.coeffs)
        return TruncatedSeries(self.base, self.offset, coeffs, self.precision)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._mate(other)
        _, prec = _product_bounds(
            self._lower_bound(), self.precision, other._lower_bound(), other.precision
        )
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries.zero(self.base, prec)
        base = self.base
        lo = self.offset + other.offset
        width = prec - lo  # >= 1: each offset lies below its own precision
        na, da = base.int_row(self.coeffs[:width])
        nb, db = base.int_row(other.coeffs[:width])
        coeffs = base.settle_row(_convolve(na, nb, width), da * db)
        return TruncatedSeries._trimmed(base, lo, coeffs, prec)

    def scale(self, c) -> "TruncatedSeries":
        c = self.base.coerce(c)
        if c == 0:
            return TruncatedSeries.zero(self.base, self.precision)
        p = self.base.p
        coeffs = [a * c % p for a in self.coeffs] if p else [a * c for a in self.coeffs]
        return TruncatedSeries(self.base, self.offset, tuple(coeffs), self.precision)

    def shift(self, k: int) -> "TruncatedSeries":
        return TruncatedSeries(self.base, self.offset + k, self.coeffs, self.precision + k)

    def inverse(self) -> "TruncatedSeries":
        if not self.coeffs:
            raise InsufficientPrecisionError(
                "cannot invert a series that is zero to its precision",
                needed=self.precision,
            )
        base = self.base
        o = self.offset
        rel = self.precision - o  # known coefficients of the unit part
        inv = _inverse(base, self.coeffs, rel)
        return TruncatedSeries._trimmed(base, -o, inv, self.precision - 2 * o)

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
        return TruncatedSeries.make(self.base, self.offset, list(self.coeffs), precision)

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
    return TruncatedSeries.make(
        p.base, 0, _dense(p, precision), precision
    )


def _dense(p: SparsePoly, precision: int) -> list:
    out = [0] * max(0, precision)
    for e, c in p.ints:
        if e[0] < precision:
            out[e[0]] = c
    return p.base.settle_row(out, p.denom)


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


def _power(powers: dict, a: TruncatedSeries, k: int, base: BaseField) -> tuple:
    """(a ** k, its integer row), from the table, built upwards on first use."""
    entry = powers.get(id(a))
    if entry is None:
        if a.base != base:
            raise PreconditionError("series over different base fields")
        # the entry holds a itself, so its id stays a's while the table lives
        entry = powers[id(a)] = (a, [None, (a, base.int_row(a.coeffs))])
    table = entry[1]
    while len(table) <= k:
        s = table[-1][0] * a
        table.append((s, base.int_row(s.coeffs)))
    return table[k]


def eval_poly_at_series(
    p: SparsePoly, args, precision: int, powers: dict | None = None
) -> TruncatedSeries:
    """Evaluate a multivariate polynomial at series arguments.

    Each term multiplies only the powers of the arguments its nonzero
    exponents name, as integer rows cut to the result's precision; its
    coefficient scales that product as it goes into one dense integer
    accumulator.  The result carries the precision of the sum of the terms
    constant(c) * a1**k1 * a2**k2 * ...

    ``powers`` is the table those powers come from: it maps id(a) to a and
    the powers of a built so far, each with its integer row, and callers
    that evaluate many polynomials at the same arguments pass one table to
    every call.  None gives a table for this call alone.
    """
    if len(args) != p.nvars:
        raise PreconditionError("wrong number of series arguments")
    base = p.base
    if powers is None:
        powers = {}
    terms = []  # (integer coefficient, the (power, row) pairs it multiplies)
    prec = precision
    for e, c in p.ints:
        factors = [_power(powers, args[i], k, base) for i, k in enumerate(e) if k]
        # lower bound and precision of the chain constant(c) * factors[0] * ...
        low, top = min(0, precision), precision
        for s, _ in factors:
            low, top = _product_bounds(low, top, s._lower_bound(), s.precision)
        prec = min(prec, top)
        terms.append((c, factors))
    rows = []  # (offset, integer numerators, scale numerator, denominator)
    for c, factors in terms:
        off = sum(s.offset for s, _ in factors)
        if off >= prec or not all(s.coeffs for s, _ in factors):
            continue
        nums, d = [1], 1
        for i, (_, (row, row_den)) in enumerate(factors):
            nums = row[: prec - off] if i == 0 else _convolve(nums, row, prec - off)
            d *= row_den
        rows.append((off, nums, c, p.denom * d))
    lo = min((row[0] for row in rows), default=prec)
    den = lcm(*(row[3] for row in rows))
    acc = [0] * (prec - lo)
    for off, nums, cn, d in rows:
        f = cn * (den // d)
        i = off - lo
        acc[i : i + len(nums)] = [x + f * y for x, y in zip(acc[i : i + len(nums)], nums)]
    return TruncatedSeries._trimmed(base, lo, base.settle_row(acc, den), prec)


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
    base = f.base
    inv = base.inv(f.den.constant_value())
    # constant(1/c, precision) starts at exponent 0, or is zero when precision < 1
    _, prec = _product_bounds(num._lower_bound(), num.precision, min(0, precision), precision)
    p = base.p
    coeffs = [x * inv % p for x in num.coeffs] if p else [x * inv for x in num.coeffs]
    return TruncatedSeries._trimmed(base, num.offset, coeffs, prec)

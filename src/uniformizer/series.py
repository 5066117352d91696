"""Truncated Laurent series with explicit precision tracking.

A series stores coefficients for exponents offset .. offset+len-1 and a
precision bound: every exponent below ``precision`` is known, everything
from ``precision`` on is unknown.  Arithmetic propagates the bound
pessimistically, so a result never claims more exponents than the inputs
justify.  A series whose stored coefficients are all zero may still be
nonzero beyond its precision; order and residue queries distinguish the
two situations honestly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsufficientPrecisionError, NotInValuationRingError, PreconditionError
from .fields import BaseField, Scalar
from .polyfield import RationalFunction, SparsePoly


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

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._mate(other)
        prec = min(self.precision, other.precision)
        lo = min(self._lower_bound(), other._lower_bound(), prec)
        coeffs = [
            self.base.add(self._at(k), other._at(k)) for k in range(lo, prec)
        ]
        return TruncatedSeries._trimmed(self.base, lo, coeffs, prec)

    def _at(self, k: int) -> Scalar:
        if k < self.offset or k >= self.offset + len(self.coeffs):
            return self.base.zero
        return self.coeffs[k - self.offset]

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.base, self.offset, tuple(self.base.neg(c) for c in self.coeffs), self.precision
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._mate(other)
        la, lb = self._lower_bound(), other._lower_bound()
        prec = min(self.precision + lb, other.precision + la)
        if not self.coeffs or not other.coeffs:
            return TruncatedSeries.zero(self.base, prec)
        base = self.base
        lo = self.offset + other.offset
        width = max(0, prec - lo)
        acc = [base.zero] * width
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                k = i + j
                if k >= width:
                    break
                if b == 0:
                    continue
                acc[k] = base.add(acc[k], base.mul(a, b))
        return TruncatedSeries._trimmed(base, lo, acc, prec)

    def scale(self, c) -> "TruncatedSeries":
        c = self.base.coerce(c)
        if c == 0:
            return TruncatedSeries.zero(self.base, self.precision)
        return TruncatedSeries.make(
            self.base, self.offset, [self.base.mul(a, c) for a in self.coeffs], self.precision
        )

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
        u = [self._at(o + i) for i in range(rel)]
        inv = [base.inv(u[0])] + [base.zero] * (rel - 1)
        for k in range(1, rel):
            s = base.zero
            for i in range(1, k + 1):
                s = base.add(s, base.mul(u[i], inv[k - i]))
            inv[k] = base.neg(base.mul(inv[0], s))
        return TruncatedSeries._trimmed(base, -o, inv, self.precision - 2 * o)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self * other.inverse()

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            return self.inverse() ** (-n)
        out = TruncatedSeries.constant(self.base, 1, self.precision + max(0, -self.offset) * n)
        square = self
        first = True
        while n:
            if n & 1:
                out = square if first else out * square
                first = False
            n >>= 1
            if n:
                square = square * square
        return out

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
    parts = []
    for i, c in enumerate(s.coeffs):
        if c == 0:
            continue
        cs = s.base.scalar_str(c)
        neg = cs.startswith("-")
        body = cs[1:] if neg else cs
        if i == 1:
            mono = name
        elif i > 1:
            mono = f"{name}^{i}"
        else:
            mono = ""
        if mono:
            body = mono if body == "1" else f"{body}*{mono}"
        parts.append(("- " if neg else "+ ") + body)
    inner = " ".join(parts)
    inner = "-" + inner[2:] if inner.startswith("- ") else inner[2:]
    if s.offset == 0:
        head = inner
    else:
        power = name if s.offset == 1 else f"{name}^{s.offset}"
        head = f"{power}*({inner})"
    return f"{head} + {tail}"


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
    out = [p.base.zero] * max(0, precision)
    for e, c in p.terms:
        if e[0] < precision:
            out[e[0]] = c
    return out


def ratfun_to_series(f: RationalFunction, precision: int) -> TruncatedSeries:
    """Expand a univariate rational function to the requested precision."""
    if f.nvars != 1:
        raise PreconditionError("series expansion needs a univariate argument")
    if f.num.is_zero:
        return TruncatedSeries.zero(f.base, precision)
    ord_den = min(e[0] for e, _ in f.den.terms)
    ord_num = min(e[0] for e, _ in f.num.terms)
    slack = precision + 2 * ord_den - min(ord_num, 0) + 1
    num = poly_to_series(f.num, max(slack, 1))
    den = poly_to_series(f.den, max(slack, 1))
    return (num / den).truncate(precision)


def eval_poly_at_series(p: SparsePoly, args, precision: int) -> TruncatedSeries:
    """Evaluate a multivariate polynomial at series arguments."""
    if len(args) != p.nvars:
        raise PreconditionError("wrong number of series arguments")
    base = p.base
    acc = TruncatedSeries.zero(base, precision)
    powers = [{} for _ in args]  # powers[i][k] = args[i] ** k
    for e, c in p.terms:
        term = TruncatedSeries.constant(base, c, precision)
        for a, table, k in zip(args, powers, e):
            if k:
                if k not in table:
                    table[k] = a ** k
                term = term * table[k]
        acc = acc + term
    return acc


def eval_ratfun_at_series(f: RationalFunction, args, precision: int) -> TruncatedSeries:
    num = eval_poly_at_series(f.num, args, precision)
    den = eval_poly_at_series(f.den, args, precision)
    return num / den

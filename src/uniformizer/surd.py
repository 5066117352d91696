"""Exact real numbers of the form  q1*sqrt(d1) + ... + qk*sqrt(dk).

The d are pairwise distinct square-free positive integers and the q are
rationals.  Square roots of distinct square-free integers are linearly
independent over the rationals, so such a sum is zero exactly when every
coefficient is zero, and the sign of a nonzero sum can be decided by
refining dyadic enclosures of each square root until the enclosure of the
sum clears zero.  Termination of that refinement relies on the sum being
provably nonzero, which the syntactic zero test guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import PreconditionError


def square_free_part(n: int) -> tuple[int, int]:
    """Return (s, f) with n == s*s*f and f square-free, for n >= 1."""
    if n < 1:
        raise PreconditionError("square_free_part needs a positive integer")
    s, f, d = 1, 1, 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    return s, f * n


def is_square_free(n: int) -> bool:
    return n >= 1 and square_free_part(n)[0] == 1


def _sqrt_bounds(d: int, bits: int) -> tuple[Fraction, Fraction]:
    # lo <= sqrt(d) < lo + 2**-bits, both bounds exact rationals
    scale = 1 << bits
    lo = isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


@dataclass(frozen=True)
class SurdScalar:
    """Canonical sum of rational multiples of square roots.

    ``terms`` maps are stored as a tuple of (coefficient, radicand) pairs,
    sorted by radicand, with no zero coefficients; the rational part uses
    radicand 1.
    """

    terms: tuple[tuple[Fraction, int], ...] = ()

    @staticmethod
    def make(pairs) -> "SurdScalar":
        acc: dict[int, Fraction] = {}
        for q, d in pairs:
            q = Fraction(q)
            if not isinstance(d, int) or d < 1:
                raise PreconditionError(f"radicand must be a positive integer, got {d!r}")
            s, f = square_free_part(d)
            acc[f] = acc.get(f, Fraction(0)) + q * s
        return SurdScalar(tuple(sorted((q, d) for d, q in acc.items() if q != 0)))

    @staticmethod
    def rational(q) -> "SurdScalar":
        q = Fraction(q)
        return SurdScalar(((q, 1),) if q else ())

    @staticmethod
    def sqrt(d: int, coeff=1) -> "SurdScalar":
        return SurdScalar.make([(Fraction(coeff), d)])

    def __add__(self, other: "SurdScalar") -> "SurdScalar":
        return SurdScalar.make(self.terms + other.terms)

    def __neg__(self) -> "SurdScalar":
        return SurdScalar(tuple((-q, d) for q, d in self.terms))

    def __sub__(self, other: "SurdScalar") -> "SurdScalar":
        return self + (-other)

    def __mul__(self, other: "SurdScalar") -> "SurdScalar":
        out = []
        for qa, da in self.terms:
            for qb, db in other.terms:
                out.append((qa * qb, da * db))
        return SurdScalar.make(out)

    def scale(self, q) -> "SurdScalar":
        q = Fraction(q)
        if q == 0:
            return SurdScalar()
        return SurdScalar(tuple((c * q, d) for c, d in self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def sign(self) -> int:
        if not self.terms:
            return 0
        signs = {1 if q > 0 else -1 for q, _ in self.terms}
        if len(signs) == 1:
            return signs.pop()
        if len(self.terms) == 2:
            # q1*sqrt(d1) vs -q2*sqrt(d2): compare squares, sign given by the larger
            (q1, d1), (q2, d2) = self.terms
            lhs, rhs = q1 * q1 * d1, q2 * q2 * d2
            if lhs != rhs:
                big_is_first = lhs > rhs
                return (1 if q1 > 0 else -1) if big_is_first else (1 if q2 > 0 else -1)
            # equal magnitudes with opposite signs cannot happen: d1 != d2
        bits = 16
        while True:
            lo = hi = Fraction(0)
            for q, d in self.terms:
                a, b = _sqrt_bounds(d, bits)
                if q >= 0:
                    lo += q * a
                    hi += q * b
                else:
                    lo += q * b
                    hi += q * a
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    def __lt__(self, other: "SurdScalar") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "SurdScalar") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "SurdScalar") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "SurdScalar") -> bool:
        return (self - other).sign() >= 0

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for q, d in self.terms:
            if d == 1:
                body = _frac_str(abs(q))
            elif abs(q) == 1:
                body = f"sqrt({d})"
            else:
                body = f"{_frac_str(abs(q))}*sqrt({d})"
            parts.append(("- " if q < 0 else "+ ") + body)
        text = " ".join(parts)
        return "-" + text[2:] if text.startswith("- ") else text[2:]


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

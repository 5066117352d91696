"""Exact real numbers of the form  q1*sqrt(d1) + ... + qk*sqrt(dk).

The d are pairwise distinct square-free positive integers and the q are
rationals.  ``SurdScalar`` is the input and output form of such a number:
a weight as read from a request, and a block value as printed.  It does
no arithmetic; ``valuegroup`` computes on integer rows over the radicands.
Every sign in the package is decided by one integer kernel,
``surd_sign``: the sign of  c1*sqrt(d1) + ... + ck*sqrt(dk)  for integers c
and distinct square-free d.  ``SurdScalar.sign`` scales its coefficients by
the lcm of their denominators and calls it; ``valuegroup`` calls it on a
block's integer value vector when its per-generator filter cannot decide.

Ties are exact: square roots of distinct square-free integers are linearly
independent over the rationals, so the sum is zero exactly when every c is
zero, and a nonzero sum is never mistaken for zero.  The kernel's filter
uses the integer root bounds  r = isqrt(d << 2*b), which satisfy
r <= 2**b * sqrt(d) < r + 1 (with equality on the left for d = 1), so

    | 2**b * sum(c*sqrt(d)) - sum(c*r) |  <=  sum(|c|).

When  |sum(c*r)| > sum(|c|)  the sign of  sum(c*r)  is the answer.  At
b = 64 that decides every sum with  |value| > 2**-63 * sum(|c|); otherwise b
doubles until it does, which terminates because a nonzero sum has
positive distance from zero.  The root bounds of each (radicands, b) are
computed once, in a size-bounded memo (``root_bounds``); the Perron
reduction in ``valuegroup`` carries the same estimate and error per basis
row and takes its root bounds from that memo too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import PreconditionError
from .fields import QQ, Frozen, clear_denominators

_Q = QQ()


def square_free_part(n: int) -> tuple[int, int]:
    """Return (s, f) with n == s*s*f and f square-free, for n >= 1.

    Trial division stops once d**3 > n; what is left has at most two prime
    factors, so it is a square or square-free, and one isqrt tells which.
    """
    if n < 1:
        raise PreconditionError("square_free_part needs a positive integer")
    s, f, d = 1, 1, 2
    while d * d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    r = isqrt(n)
    if r > 1 and r * r == n:
        return s * r, f
    return s, f * n


def is_square_free(n: int) -> bool:
    return n >= 1 and square_free_part(n)[0] == 1


FILTER_BITS = 64


def root_bounds(radicands, bits: int = FILTER_BITS) -> tuple[int, ...]:
    """isqrt(d << 2*bits) for each d: the floor of 2**bits * sqrt(d).

    Each (radicands, bits) pair is computed once and kept in a size-bounded
    memo, which ``surd_sign``'s doubling loop and the Perron reduction share.
    """
    return _root_bounds(tuple(radicands), bits)


@lru_cache(maxsize=256)
def _root_bounds(radicands: tuple[int, ...], bits: int) -> tuple[int, ...]:
    return tuple(isqrt(d << (2 * bits)) for d in radicands)


def surd_sign(coeffs, radicands, roots=None) -> int:
    """Sign of sum(c * sqrt(d)) for integers c and distinct square-free d.

    ``roots`` may carry ``root_bounds(radicands)`` when the caller has them.
    """
    err, pos, neg = 0, False, False
    for c in coeffs:
        if c > 0:
            err, pos = err + c, True
        elif c < 0:
            err, neg = err - c, True
    if not neg:
        return 1 if pos else 0
    if not pos:
        return -1
    bits = FILTER_BITS
    if roots is None:
        roots = root_bounds(radicands, bits)
    while True:
        approx = sum(c * r for c, r in zip(coeffs, roots))
        if approx > err:
            return 1
        if approx < -err:
            return -1
        bits *= 2
        roots = root_bounds(radicands, bits)


class SurdScalar(Frozen):
    """Canonical sum of rational multiples of square roots: a weight or a
    printed block value.

    ``terms`` is a tuple of (coefficient, radicand) pairs with distinct
    square-free radicands, sorted (by coefficient, then radicand), with no
    zero coefficients; the rational part uses radicand 1.  ``make`` builds
    the canonical form from any pairs.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[tuple[Fraction, int], ...] = ()):
        set_terms, set_key = self._setters
        set_terms(self, terms)
        set_key(self, (terms,))

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

    def sign(self) -> int:
        nums, _ = clear_denominators([q for q, _ in self.terms])
        return surd_sign(nums, tuple(d for _, d in self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        return _Q.sum_str((q, "" if d == 1 else f"sqrt({d})") for q, d in self.terms)

"""Dense univariate polynomials as integer rows.

A row is a list of ints, lowest degree first, with no trailing zeros; the
empty row is zero.  Each function takes the characteristic p: over F_p the
entries are residues in [0, p); over Q (p is 0 or None) they are integer
numerators in the integer-row format of ``fields``, the caller keeps the
one denominator, and the arithmetic is that of Z[X].

An element of K0[t] is a row in t, with every denominator cleared on the
way in over Q.  The users:

- ``completion._QuotientRing``: an element of K0(t)[X]/(m) is a vector of
  dim such rows over the power basis 1, X, ..., X^(dim-1), read over one
  common denominator in K0[t] that is kept beside it.  m is monic in X,
  so reduction modulo m never divides.
- ``completion._w_min_poly``: the minimal polynomial of w = b/(zeta - a)
  by one Taylor shift of zeta's on rows; ``completion._horner`` evaluates
  f(t, z) and f'(t, z) for Hensel lifting by Horner's rule in X.
- ``completion._deflate`` and ``_find_one_root``: residue roots.
- ``polyfield._gcd_map`` (``poly_gcd`` in one variable and
  ``_certified_coprime``) and ``polyfield._make_dense``
  (``RationalFunction.make`` in one variable): gcd and exact division on
  rows in x^s, when the rows are not sparse.
- ``series._convolve``: ``mul`` when the shorter row has at most eight
  entries.  Most K0[t] operands have one entry, where the schoolbook loop
  beats Kronecker substitution.
"""

from __future__ import annotations

from math import gcd as _igcd

from .errors import PreconditionError


def trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def add(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p if p else out[i] + y
    return trim(out)


def scale(a: list, k: int, p: int) -> list:
    """a times an integer k that is nonzero (modulo p over F_p)."""
    return [c * k % p for c in a] if p else [c * k for c in a]


def mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out] if p else out


def _divmod(a: list, b: list, p: int) -> tuple:
    """(q, r) with a = q*b + r and deg r < deg b, for a nonzero b; over Q in
    Z[X], with q None once a quotient coefficient is not an integer."""
    a, n, lead = list(a), len(b) - 1, b[-1]
    inv = pow(lead, -1, p) if p else 0
    q = [0] * max(0, len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, r = (a[k + n] * inv % p, 0) if p else divmod(a[k + n], lead)
        if r:
            return None, None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q, trim([c % p for c in a[:n]] if p else a[:n])


def divexact(a: list, b: list, p: int) -> list:
    """a / b for a nonzero b; raises PreconditionError when b does not divide
    a (over Q: in Z[X])."""
    if not a or b == [1]:
        return a
    q, r = _divmod(a, b, p)
    if q is None or r:
        raise PreconditionError("polynomial division is not exact")
    return q


def horner(a: list, x: int, p: int, q: int = 1) -> int:
    """a(x) modulo p over F_p.  Over Q, the integer q^deg(a) * a(x/q), which
    is zero exactly when x/q is a root."""
    acc, qk = 0, 1
    for c in reversed(a):
        acc = acc * x + c * qk
        if p:
            acc %= p
        qk *= q
    return acc


def _primitive(a: list) -> list:
    g = _igcd(*a)
    return [c // g for c in a] if g > 1 else a


def gcd(a: list, b: list, p: int) -> list:
    """A greatest common divisor: monic over F_p, by Euclid; over Q the
    primitive gcd in Z[X] with a positive leading coefficient, by the
    primitive remainder sequence.  Zero when both rows are zero."""
    if p:
        while b:
            a, b = b, _divmod(a, b, p)[1]
        return scale(a, pow(a[-1], -1, p), p) if a else a
    a, b = _primitive(a), _primitive(b)
    while b:
        # lead(b)^(deg a - deg b + 1) * a leaves an integral remainder
        k = max(0, len(a) - len(b) + 1)
        a, b = b, _primitive(_divmod(scale(a, b[-1] ** k, 0), b, 0)[1])
    return [-c for c in a] if a and a[-1] < 0 else a

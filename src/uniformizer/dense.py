"""Dense univariate polynomials as integer rows: the one integer-row kernel.

A row is a list of ints, lowest degree first, with no trailing zeros; the
empty row is zero.  Each function takes the characteristic p: over F_p the
entries are residues in [0, p); over Q (p is 0 or None) they are integer
numerators in the integer-row format of ``fields``, the caller keeps the
one denominator, and the arithmetic is that of Z[X].  The algorithms are
the standard ones (von zur Gathen and Gerhard, *Modern Computer Algebra*,
§8.4 and ch. 9).

- Products (``mul``), whole or cut below x^n.  When the shorter row has
  at most ``_SCHOOLBOOK`` = 8 entries, the schoolbook loop: most K0[t]
  operands have one to four entries, where packing costs more than the
  loop.  Otherwise Kronecker substitution: each row is packed into one
  integer as its value at 2^w, the two integers are multiplied once, and
  the product is read back w bits at a time.  A coefficient of the
  product is a sum of at most min(len a, len b) products, so ``bound =
  max|a| * max|b| * min(len a, len b)`` bounds every output, and every
  input too when both rows are nonzero; w is a whole number of bytes with
  bound < 2^(w-1).  When a row has a negative entry, every digit is
  biased by 2^(w-1) on the way in and on the way out.  A biased digit
  lies in [0, 2^w), so no digit borrows from or carries into its
  neighbour, and each w-bit field of the biased product is exactly one
  coefficient plus 2^(w-1).  Rows of residues need no bias.  A one-entry
  operand only scales the other row.
- Inverses (``inverse``): Newton iteration on those products, one integer
  row over one denominator, reduced after every round (``reduce``).
- Quotients (``quotient``): the coefficients below x^n of a/b by long
  division, one integer row over one denominator, fraction-free over Q.
  Its n * min(len b, n) products are those of the schoolbook product b * q
  that it undoes, so ``series`` divides this way when the shorter of the
  divisor and the quotient has at most ``_SCHOOLBOOK`` entries, and by the
  Newton inverse and one product otherwise.
- ``taylor_shift``: H(a + Y) for H with rows as coefficients.
- ``of_poly`` reads a SparsePoly's integers as rows, and ``to_ints``
  gives a row back as SparsePoly integer pairs.

The users: ``series`` (a ``TruncatedSeries`` is one row over one
denominator: products, inverses and quotients; Hensel lifting by
Horner's rule in X); ``completion``: the quotient ring K0(t)[X]/(m),
whose elements are vectors of rows in t, the content of each minimal
polynomial's rows, and one Taylor shift per Kaplansky table
g^[i](a) b^i, whose table of zeta's minimal polynomial also gives that
of w = b/(zeta - a); ``polyfield``:
gcd and exact division of one-variable polynomials on rows in x^s, when
the rows are not sparse (``poly_gcd``, ``_certified_coprime`` and
``RationalFunction.make``).
"""

from __future__ import annotations

import operator
from math import gcd as _igcd

from .errors import PreconditionError

# longest shorter operand that mul multiplies by the schoolbook loop; on the
# products of the series pipeline the loop stays faster up to about 12
# entries, but on rows of 30-bit integers Kronecker wins from about 8
_SCHOOLBOOK = 8


def trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def reduce(a: list, den: int, p: int) -> tuple[list, int]:
    """The row a over a positive den with its integers made small: % p over
    1, or a and den divided by their gcd."""
    if p:
        return [c % p for c in a], 1
    g = _igcd(den, *a)
    return ([c // g for c in a], den // g) if g > 1 else (a, den)


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


def mul(a: list, b: list, p: int, n: int | None = None) -> list:
    """a * b, or its coefficients below x^n when n is given; trimmed."""
    if n is not None:
        a, b = a[:n], b[:n]
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # b is already cut below x^n
        return trim(scale(b, a[0], p))
    m = len(a) + len(b) - 1 if n is None else min(n, len(a) + len(b) - 1)
    if len(a) > _SCHOOLBOOK:
        out = _kronecker(a, b, m)
    else:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        del out[m:]
    return trim([c % p for c in out] if p else out)


def _kronecker(a: list, b: list, n: int) -> list:
    """The first n coefficients of a * b, from one product of packed integers."""
    low_a, low_b = min(a), min(b)
    bound = max(max(a), -low_a) * max(max(b), -low_b) * min(len(a), len(b))
    if not bound:
        return []
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


def _pack(coeffs: list, size: int, bias: int) -> int:
    """sum(c_i * 2^(8*size*i)), from the bytes of the digits c_i + bias."""
    digits = b"".join([(c + bias).to_bytes(size, "little") for c in coeffs])
    packed = int.from_bytes(digits, "little")
    return packed - bias * _ones(size, len(coeffs)) if bias else packed


def inverse(a: list, n: int, p: int) -> tuple[list, int]:
    """(g, d): the coefficients below x^n of 1/a as the row g over d > 0
    (1 over F_p), reduced; empty for n <= 0.  ZeroDivisionError when a's
    constant term is zero.

    Newton's g <- g + g(1 - a g): when g/d is 1/a below x^k and
    a g = d + x^k r, the coefficients k .. 2k-1 of 1/a are those of -g r/d^2.
    As g stops at x^k, r only meets a from x^1 on.
    """
    c = (a[0] % p if p else a[0]) if a else 0
    if not c:
        raise ZeroDivisionError("inverse of a row with no constant term")
    if n <= 0:
        return [], 1
    if p:
        g, d = [pow(c, -1, p)], 1
    else:
        g, d = ([1], c) if c > 0 else ([-1], -c)
    tail = a[1:n]  # the coefficients of a from x^1 on
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        r = mul(tail, g, p, k2 - 1)[k - 1 :]  # over d
        corr = mul(g, r, p, k2 - k)  # g r, over d * d
        g = [x * d for x in g] + [-x for x in corr] + [0] * (k2 - k - len(corr))
        g, d = reduce(g, d * d, p)
        k = k2
    return trim(g), d


def quotient(a: list, b: list, n: int, p: int) -> tuple[list, int]:
    """(q, d): the coefficients below x^n of a/b as the row q over d > 0 (1
    over F_p), reduced, by long division; empty for n <= 0 or an empty a.
    ZeroDivisionError when b's constant term is zero.

    Step k is q_k = (a_k - sum_{j >= 1} b_j q_{k-j}) / b_0, which takes
    min(k, len(b) - 1) products.  Over Q it stays fraction-free: Q_k =
    b_0^(k+1) q_k is b_0^k a_k - sum_j b_j b_0^(j-1) Q_{k-j}, and q is read
    over b_0^n.
    """
    c = (b[0] % p if p else b[0]) if b else 0
    if not c:
        raise ZeroDivisionError("quotient by a row with no constant term")
    if n <= 0 or not a:
        return [], 1
    a, tail = list(a[:n]), b[1:n]
    a += [0] * (n - len(a))
    if p:
        inv = pow(c, -1, p)
        back = tail[::-1]  # b_m .. b_1, against q_{k-m} .. q_{k-1}
    else:
        back = [y * c**j for j, y in enumerate(tail)][::-1]  # b_j c^(j-1)
    m, q, ck = len(back), [], 1
    for k in range(n):
        w = min(k, m)
        s = sum(map(operator.mul, back[m - w :], q[k - w :]))
        if p:
            q.append((a[k] - s) * inv % p)
        else:
            q.append(ck * a[k] - s)
            ck *= c
    if p:
        return trim(q), 1
    # q_k = Q_k / c^(k+1) = Q_k c^(n-1-k) / c^n, over a positive c^n
    sign = -1 if ck < 0 else 1
    row = [0] * n
    for k in range(n - 1, -1, -1):
        row[k] = sign * q[k]
        sign *= c
    return reduce(trim(row), abs(ck), 0)


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


def taylor_shift(rows: list, a: list, p: int) -> list:
    """The coefficients S_s of H(a + Y) = sum_s S_s Y^s, for the polynomial
    H(Y) = sum_i rows[i] Y^i whose coefficients, like a, are rows in t:
    Horner's rule repeated, k(k+1)/2 products for degree k.  Over F_p each
    S_s is reduced, so a binomial coefficient that vanishes mod p vanishes
    here too."""
    S, k = list(rows), len(rows) - 1
    if a:
        for s in range(k):
            for i in range(k - 1, s - 1, -1):
                S[i] = add(S[i], mul(a, S[i + 1], p), p)
    return S


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


def of_poly(f, n: int | None = None) -> list:
    """The integers of a SparsePoly f as rows in its first variable, below
    x0^n when n is given, without f's denominator: for f in one variable its
    row; for f in (x0, x1) the rows of the coefficients of x1^0, x1^1, ...,
    x1^deg (none for the zero polynomial)."""
    ints, two = f.ints, f.nvars == 2
    width = max((e[0] for e, _ in ints), default=-1) + 1
    if n is not None:
        width = min(width, max(n, 0))
    rows = [[0] * width for _ in range(max((e[-1] for e, _ in ints), default=-1) + 1 if two else 1)]
    for e, c in ints:
        if e[0] < width:
            rows[e[-1] if two else 0][e[0]] = c
    return [trim(row) for row in rows] if two else trim(rows[0])


def to_ints(row, offset: int = 0, step: int = 1) -> tuple:
    """The nonzero entries of a row as the (exponent tuple, integer) pairs of
    a polynomial in one variable, entry i at exponent offset + step*i,
    highest first (the order of ``SparsePoly.ints``)."""
    return tuple(((offset + step * i,), row[i]) for i in range(len(row) - 1, -1, -1) if row[i])

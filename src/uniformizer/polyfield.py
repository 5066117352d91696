"""Sparse multivariate polynomials and rational functions in canonical form.

A polynomial stores integers over one denominator, the content and
primitive-part form of von zur Gathen and Gerhard (*Modern Computer
Algebra*, ch. 6).  ``ints`` holds (exponent tuple, integer) pairs sorted
in descending graded-lexicographic order with no zero integer, and
``denom`` is a positive integer whose gcd with all of them is 1; the
polynomial is (1/denom) sum c x^e.  Over a prime field the integers are
residues in ``[0, p)`` and ``denom`` is 1.  The form is unique, so
structural equality (``==``, ``hash``, pickling) decides mathematical
equality, and the arithmetic here computes on the integers with no
scalar objects in between.  ``terms`` reads the same polynomial as
(exponent tuple, canonical scalar) pairs, ``Fraction`` over Q and the
residues over F_p: a view built on first use and kept, for printers, JSON
and tests.  Rational functions keep numerator and denominator coprime;
over the rationals both are integer polynomials (``denom`` 1) with no
common integer content and the denominator's graded-lex leading
coefficient is positive, over a prime field the denominator is monic.

There are two ways in.  ``SparsePoly.make`` validates: it coerces every
coefficient and checks every exponent vector, and it is the constructor
for external input (parsers, JSON, user code).  ``SparsePoly._canon``
trusts: it takes a dict of integers keyed by valid exponent tuples and a
nonzero denominator, reduces the integers mod p or cancels their common
factor with the denominator, drops zeros and sorts the keys, and is what
the arithmetic here uses on its own results.  Code that keeps both the
order and the nonzero integers (a shift of every exponent, a scaling by a
unit) calls ``_settled``, which only cancels, or the class directly.

``substitute`` relies on one invariant: over Q the numerator and
denominator of a canonical rational function have denominator 1, so its
arguments are integer polynomials.  Its expansion can stop before the
normal form, for checks that need only whether a value is zero, or its
valuation and initial forms.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce
from operator import itemgetter

from . import dense
from .errors import PreconditionError
from .fields import BaseField, Frozen, Scalar, clear_denominators

Exps = tuple[int, ...]
_coeff = itemgetter(1)


def power(x, n: int):
    """x ** n for an integer n >= 1, by square-and-multiply."""
    out, square = None, x
    while True:
        if n & 1:
            out = square if out is None else out * square
        n >>= 1
        if not n:
            return out
        square = square * square


def _grlex_key(e: Exps):
    return (sum(e), e)


def _term_key(term):
    e = term[0]
    return (sum(e), e)


class SparsePoly(Frozen):
    """(1/denom) * sum of c * x^e over the pairs (e, c) of ``ints``."""

    __slots__ = ("base", "nvars", "ints", "denom", "_terms")

    def __init__(self, base: BaseField, nvars: int, ints: tuple[tuple[Exps, int], ...], denom: int = 1):
        set_base, set_nvars, set_ints, set_denom, set_terms, set_key = self._setters
        set_base(self, base)
        set_nvars(self, nvars)
        set_ints(self, ints)
        set_denom(self, denom)
        set_terms(self, None)
        set_key(self, (base, nvars, ints, denom))

    def __repr__(self):
        return f"SparsePoly(base={self.base!r}, nvars={self.nvars!r}, terms={self.terms!r})"

    @property
    def terms(self) -> tuple[tuple[Exps, Scalar], ...]:
        """The (exponent tuple, canonical scalar) pairs: over F_p ``ints``
        itself, over Q a view built on first use and kept."""
        view = self._terms
        if view is None:
            if self.base.p:
                return self.ints
            d = self.denom
            view = tuple((e, Fraction(c, d)) for e, c in self.ints)
            SparsePoly._terms.__set__(self, view)
        return view

    # -- construction -------------------------------------------------

    @staticmethod
    def make(base: BaseField, nvars: int, terms) -> "SparsePoly":
        acc: dict[Exps, Scalar] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for e, c in items:
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise PreconditionError(f"bad exponent vector {e} for {nvars} variables")
            c = base.coerce(c)
            prev = acc.get(e)
            acc[e] = base.add(prev, c) if prev is not None else c
        return SparsePoly._of_scalars(base, nvars, acc)

    @staticmethod
    def _of_scalars(base: BaseField, nvars: int, acc: dict) -> "SparsePoly":
        """Trusted: acc maps valid exponent tuples to canonical scalars."""
        if base.p:
            return SparsePoly._canon(base, nvars, acc)
        nums, denom = clear_denominators(acc.values())
        return SparsePoly._canon(base, nvars, dict(zip(acc, nums)), denom)

    @staticmethod
    def _canon(base: BaseField, nvars: int, acc: dict, denom: int = 1) -> "SparsePoly":
        """Trusted: (1/denom) sum acc[e] x^e, acc mapping valid exponent
        tuples to integers and denom a nonzero integer."""
        p = base.p
        values = map(p.__rmod__, acc.values()) if p else acc.values()
        ints = sorted([t for t in zip(acc, values) if t[1]], key=_term_key, reverse=True)
        return _settled(base, nvars, tuple(ints), denom)

    @staticmethod
    def zero(base: BaseField, nvars: int) -> "SparsePoly":
        return SparsePoly(base, nvars, ())

    @staticmethod
    def const(base: BaseField, nvars: int, c) -> "SparsePoly":
        c = base.coerce(c)
        if not c:
            return SparsePoly(base, nvars, ())
        return SparsePoly(base, nvars, (((0,) * nvars, c.numerator),), c.denominator)

    @staticmethod
    def variable(base: BaseField, nvars: int, i: int) -> "SparsePoly":
        e = [0] * nvars
        e[i] = 1
        return SparsePoly(base, nvars, ((tuple(e), 1),))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def is_constant(self) -> bool:
        # the leading term has the largest total degree
        return not self.ints or not any(self.ints[0][0])

    def constant_value(self) -> Scalar:
        if self.is_zero:
            return self.base.zero
        if not self.is_constant:
            raise PreconditionError("polynomial is not constant")
        return self.base.settle_row([self.ints[0][1]], self.denom)[0]

    def degree_in(self, var: int) -> int:
        if self.is_zero:
            raise PreconditionError("degree of the zero polynomial")
        return max(e[var] for e, _ in self.ints)

    # -- arithmetic ----------------------------------------------------

    def _check_mate(self, other: "SparsePoly"):
        if (self.base is not other.base and self.base != other.base) or self.nvars != other.nvars:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_mate(other)
        denom = math.lcm(self.denom, other.denom)
        sa, sb = denom // self.denom, denom // other.denom
        acc = dict(self.ints) if sa == 1 else {e: c * sa for e, c in self.ints}
        for e, c in other.ints:
            acc[e] = acc.get(e, 0) + c * sb
        return SparsePoly._canon(self.base, self.nvars, acc, denom)

    def __neg__(self) -> "SparsePoly":
        p = self.base.p
        ints = tuple((e, p - c) for e, c in self.ints) if p else tuple((e, -c) for e, c in self.ints)
        return SparsePoly(self.base, self.nvars, ints, self.denom)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_mate(other)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b = b, a
        denom = self.denom * other.denom
        if len(b) == 1:
            # a monomial keeps the grlex order, and over a field no product vanishes
            (eb, cb), p = b[0], self.base.p
            ints = tuple((tuple(map(int.__add__, ea, eb)), ca * cb) for ea, ca in a)
            if p:
                ints = tuple((e, c % p) for e, c in ints)
            return _settled(self.base, self.nvars, ints, denom)
        acc: dict[Exps, int] = {}
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(map(int.__add__, ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
        return SparsePoly._canon(self.base, self.nvars, acc, denom)

    def scale(self, c) -> "SparsePoly":
        c = self.base.coerce(c)
        if c == 0:
            return SparsePoly.zero(self.base, self.nvars)
        return self._scale(c)

    def _scale(self, c) -> "SparsePoly":
        """Trusted: c is a nonzero canonical scalar; the terms keep their order."""
        p = self.base.p
        if p:
            return SparsePoly(self.base, self.nvars, tuple((e, k * c % p) for e, k in self.ints))
        n = c.numerator
        ints = tuple((e, k * n) for e, k in self.ints)
        return _settled(self.base, self.nvars, ints, self.denom * c.denominator)

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise PreconditionError("negative power of a polynomial")
        if n == 0:
            return SparsePoly.const(self.base, self.nvars, self.base.one)
        return power(self, n)

    def evaluate(self, args) -> Scalar:
        args = [self.base.coerce(a) for a in args]
        if len(args) != self.nvars:
            raise PreconditionError("wrong number of evaluation points")
        base = self.base
        total = base.zero
        for e, c in self.ints:
            term = c
            for a, k in zip(args, e):
                if k:
                    term = base.mul(term, base.pow(a, k))
            total = base.add(total, term)
        return base.div(total, self.denom)

    def map_vars(self, mapping, new_nvars: int) -> "SparsePoly":
        """Reindex variables: old variable i becomes new variable mapping[i]."""
        if len(mapping) != self.nvars:
            raise PreconditionError("variable mapping has the wrong length")
        acc: dict[Exps, int] = {}
        for e, c in self.ints:
            ne = [0] * new_nvars
            for i, k in enumerate(e):
                if k:
                    ne[mapping[i]] += k
            ne = tuple(ne)
            acc[ne] = acc.get(ne, 0) + c
        return SparsePoly._canon(self.base, new_nvars, acc, self.denom)

    def __str__(self):
        return poly_str(self, default_names(self.nvars))


def _settled(base: BaseField, nvars: int, ints: tuple, denom: int) -> SparsePoly:
    """Trusted: ordered pairs with nonzero integers (residues over F_p) over
    a nonzero denom, brought to the canonical denominator."""
    if denom != 1:
        p = base.p
        if p:
            inv = pow(denom, -1, p)
            return SparsePoly(base, nvars, tuple((e, c * inv % p) for e, c in ints))
        if denom < 0:
            denom, ints = -denom, tuple((e, -c) for e, c in ints)
        g = math.gcd(denom, *map(_coeff, ints))
        if g != 1:
            ints, denom = tuple((e, c // g) for e, c in ints), denom // g
    return SparsePoly(base, nvars, ints, denom)


def default_names(n: int) -> list[str]:
    return [f"x{i + 1}" for i in range(n)]


def poly_str(f: SparsePoly, names) -> str:
    """Canonical text: graded-lex descending terms, explicit * and ^."""
    if f.is_zero:
        return "0"
    if len(names) != f.nvars:
        raise PreconditionError("wrong number of variable names")
    return f.base.sum_str(
        (c, "*".join(names[i] if k == 1 else f"{names[i]}^{k}" for i, k in enumerate(e) if k))
        for e, c in f.terms
    )


def hasse_derivative(f: SparsePoly, i: int, var: int = 0) -> SparsePoly:
    """i-th Hasse derivative in the given variable.

    The coefficient of x^n maps to binomial(n, i) * x^(n-i); over a prime
    field the binomial is reduced mod p, which keeps the Taylor expansion
    f(z) = sum_i f^[i](a) (z-a)^i valid in every characteristic.
    """
    if i < 0:
        raise PreconditionError("Hasse derivative order must be non-negative")
    if not 0 <= var < f.nvars:
        raise PreconditionError(f"no variable {var} in a {f.nvars}-variable ring")
    out = {}
    for e, c in f.ints:
        if e[var] < i:
            continue
        ne = list(e)
        ne[var] -= i
        out[tuple(ne)] = c * math.comb(e[var], i)
    return SparsePoly._canon(f.base, f.nvars, out, f.denom)


# ---------------------------------------------------------------------------
# GCD machinery (primitive remainder sequences over the base field)


def _split_main(f: SparsePoly) -> dict[int, SparsePoly]:
    """View f as a univariate polynomial in variable 0 with SparsePoly coefficients."""
    buckets: dict[int, list] = {}
    for e, c in f.ints:
        buckets.setdefault(e[0], []).append((e[1:], c))
    # within one bucket e[0] is fixed, so the grlex order of e is that of e[1:]
    return {
        d: _settled(f.base, f.nvars - 1, tuple(pairs), f.denom)
        for d, pairs in buckets.items()
    }


def _join_main(base: BaseField, nvars: int, coeffs: dict[int, SparsePoly]) -> SparsePoly:
    denom = math.lcm(*(poly.denom for poly in coeffs.values()))
    out = {}
    for d, poly in coeffs.items():
        s = denom // poly.denom
        for e, c in poly.ints:
            out[(d,) + e] = c * s
    return SparsePoly._canon(base, nvars, out, denom)


def poly_content(f: SparsePoly) -> SparsePoly:
    """GCD of the coefficients of f seen as univariate in variable 0."""
    coeffs = list(_split_main(f).values())
    return reduce(poly_gcd, coeffs) if coeffs else SparsePoly.zero(f.base, f.nvars - 1)


def _min_exps(f: SparsePoly) -> tuple[int, ...]:
    return tuple(min(e[i] for e, _ in f.ints) for i in range(f.nvars))


def _shift_down(f: SparsePoly, shift) -> SparsePoly:
    if not any(shift):
        return f
    # one shift for every term keeps the grlex order
    return SparsePoly(
        f.base, f.nvars, tuple((tuple(map(int.__sub__, e, shift)), c) for e, c in f.ints), f.denom
    )


# most entries per term that a dense row of a univariate gcd may hold
_DENSE_FILL = 64


def _specialised(f: SparsePoly, var: int, point=()) -> dict[int, int]:
    """f as {exponent of var: integer}, every other variable specialised at
    the integers point; over Q without f's denominator."""
    p, out = f.base.p, {}
    for e, c in f.ints:
        for x, k in zip(point, e[:var] + e[var + 1 :]):
            if k:
                c *= pow(x, k, p)
        out[e[var]] = out.get(e[var], 0) + c
    return {e: c for e, c in ((e, c % p if p else c) for e, c in out.items()) if c}


def _dense_rows(a: dict, b: dict):
    """(s, row of a, row of b): two nonzero {exponent: integer} maps as dense
    rows in x^s, s the gcd of the exponents, or None when a row would hold
    more than _DENSE_FILL entries per term."""
    s = math.gcd(*a, *b) or 1
    if any(max(m) // s >= _DENSE_FILL * len(m) for m in (a, b)):
        return None
    rows = [[0] * (max(m) // s + 1) for m in (a, b)]
    for row, m in zip(rows, (a, b)):
        for e, c in m.items():
            row[e // s] = c
    return s, rows[0], rows[1]


def _gcd_map(a: dict, b: dict, p) -> dict:
    """A gcd of two nonzero {exponent: integer} maps: monic over F_p, and a
    gcd up to a constant factor over Q.

    Dense rows (``_dense_rows``) when they fit.  Otherwise, as for
    x^(10^8) + x, a sparse Euclid whose memory stays that of the terms."""
    rows = _dense_rows(a, b)
    if rows is not None:
        s, ra, rb = rows
        return {k * s: c for k, c in enumerate(dense.gcd(ra, rb, p)) if c}
    while b:
        a, b = b, _sparse_rem(a, b, p)
    if p:
        inv = pow(a[max(a)], -1, p)
        a = {e: c * inv % p for e, c in a.items()}
    return a


def _sparse_rem(a: dict, b: dict, p) -> dict:
    """a modulo b over F_p.  Over Z the primitive part of a remainder of
    c*a, the integer c > 0 grown only where a quotient term needs it."""
    a, db = dict(a), max(b)
    lead = b[db]
    inv = pow(lead, -1, p) if p else 0
    while a and max(a) >= db:
        da = max(a)
        if p:
            k = a[da] * inv % p
        else:
            s = abs(lead) // math.gcd(a[da], lead)
            if s > 1:
                a = {e: c * s for e, c in a.items()}
            k = a[da] // lead
        for e, c in b.items():
            key = e + da - db
            w = a.get(key, 0) - k * c
            w = w % p if p else w
            if w:
                a[key] = w
            else:
                a.pop(key, None)
    if a and not p:
        g = math.gcd(*a.values())
        a = {e: c // g for e, c in a.items()}
    return a


def _certified_coprime(f: SparsePoly, g: SparsePoly) -> bool:
    """Certify gcd(f, g) constant through univariate specializations.

    Any common divisor keeps its degree in one variable when the others are
    specialized at a point where the leading coefficient survives, so a
    degree-0 specialized gcd in every variable proves the claim.  A False
    return is never wrong, only slower.
    """
    rng = random.Random(0x5EED)
    for var in range(f.nvars):
        if f.degree_in(var) == 0 or g.degree_in(var) == 0:
            continue
        tries = ((f, g),) * 4 + ((g, f),) * 4
        if not any(_coprime_at(a, b, var, rng) for a, b in tries):
            return False
    return True


def _coprime_at(f: SparsePoly, g: SparsePoly, var: int, rng) -> bool:
    """Whether f keeps its degree in var at a random point of the other
    variables, and its gcd with g there is constant."""
    p = f.base.p
    point = [rng.randrange(p) if p else rng.randint(-9, 9) for _ in range(f.nvars - 1)]
    a, b = _specialised(f, var, point), _specialised(g, var, point)
    return max(a, default=-1) == f.degree_in(var) and bool(b) and max(_gcd_map(a, b, p)) == 0


def poly_gcd(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """A greatest common divisor, monic-normalized when univariate.

    Multivariate recursion by primitive remainder sequences in variable 0,
    after stripping the common monomial factor and attempting a cheap
    coprimality certificate; any associate of the gcd serves the
    rational-function normalization, which rescales afterwards.
    """
    f._check_mate(g)
    base = f.base
    if f.is_zero:
        return g
    if g.is_zero:
        return f
    if f.nvars == 0:
        return SparsePoly.const(base, 0, base.one)
    if f.nvars == 1:
        h = _gcd_map(_specialised(f, 0), _specialised(g, 0), base.p)
        return SparsePoly._canon(base, 1, {(e,): c for e, c in h.items()}, h[max(h)])

    sf, sg = _min_exps(f), _min_exps(g)
    mono = SparsePoly(base, f.nvars, ((tuple(map(min, sf, sg)), 1),))
    f, g = _shift_down(f, sf), _shift_down(g, sg)
    if f.is_constant or g.is_constant or _certified_coprime(f, g):
        return mono

    cf, cg = poly_content(f), poly_content(g)
    cont = poly_gcd(cf, cg)
    a = _primitive_part(f, cf)
    b = _primitive_part(g, cg)
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        if not r.is_zero:
            r = _primitive_part(r, poly_content(r))
        a, b = b, r
    lifted_cont = cont.map_vars(list(range(1, f.nvars)), f.nvars)
    return mono * lifted_cont * a


def _primitive_part(f: SparsePoly, content: SparsePoly) -> SparsePoly:
    if content.is_zero:
        return f
    coeffs = _split_main(f)
    out = {d: poly_divexact(c, content) for d, c in coeffs.items()}
    return _join_main(f.base, f.nvars, out)


def _pseudo_rem(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """Pseudo remainder of a by b in variable 0.

    Multiplies by powers of b's leading coefficient instead of dividing,
    so every step stays inside the polynomial ring; the leading terms
    cancel exactly, which forces the main-variable degree down each pass.
    """
    nv = a.nvars

    def lift(p: SparsePoly) -> SparsePoly:
        return p.map_vars(list(range(1, nv)), nv)

    cb = _split_main(b)
    db = max(cb)
    lead_b = lift(cb[db])
    r = a
    while not r.is_zero:
        cr = _split_main(r)
        dr = max(cr)
        if dr < db:
            break
        shift = SparsePoly(a.base, nv, (((dr - db,) + (0,) * (nv - 1), 1),))
        r = lead_b * r - shift * lift(cr[dr]) * b
    return r


def poly_divexact(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Exact quotient f/g; raises if g does not divide f.

    Over Q, with f = F/df and g = k*G/dg for G primitive, G divides F in
    Z[x] whenever it does in Q[x] (Gauss's lemma), so every quotient
    coefficient is an integer and f/g = (F/G)*dg/(df*k).
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    base, p = f.base, f.base.p
    gi = g.ints
    k = 1 if p else math.gcd(*map(_coeff, gi))
    if k != 1:
        gi = tuple((e, c // k) for e, c in gi)
    ge, gc = gi[0]
    inv = pow(gc, -1, p) if p else None
    if len(gi) == 1:
        # one shift for every term keeps the grlex order
        ints = tuple((tuple(map(int.__sub__, e, ge)), c) for e, c in f.ints)
        if any(x < 0 for e, _ in ints for x in e):
            raise PreconditionError("polynomial division is not exact")
        if p:
            return SparsePoly(base, f.nvars, tuple((e, c * inv % p) for e, c in ints))
        return _settled(base, f.nvars, tuple((e, c * g.denom) for e, c in ints), f.denom * k * gc)
    rem = dict(f.ints)
    out: dict[Exps, int] = {}
    while rem:
        e = max(rem, key=_grlex_key)
        qe = tuple(map(int.__sub__, e, ge))
        if any(x < 0 for x in qe):
            raise PreconditionError("polynomial division is not exact")
        if p:
            qc = rem[e] * inv % p
        else:
            qc, r = divmod(rem[e], gc)
            if r:
                raise PreconditionError("polynomial division is not exact")
        out[qe] = qc
        for te, tc in gi:
            key = tuple(map(int.__add__, qe, te))
            val = rem.get(key, 0) - qc * tc
            if p:
                val %= p
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    if g.denom != 1:
        out = {e: c * g.denom for e, c in out.items()}
    return SparsePoly._canon(base, f.nvars, out, f.denom * k)


# ---------------------------------------------------------------------------
# Rational functions


class RationalFunction(Frozen):
    __slots__ = ("num", "den")

    def __init__(self, num: SparsePoly, den: SparsePoly):
        set_num, set_den, set_key = self._setters
        set_num(self, num)
        set_den(self, den)
        set_key(self, (num, den))

    @staticmethod
    def make(num: SparsePoly, den: SparsePoly) -> "RationalFunction":
        """num/den in canonical form: coprime, and over F_p den monic; over Q
        integer coefficients with no common content and den's leading
        coefficient positive.  A form with these properties is unique, so
        every path below gives the same result.

        With one variable and two nonconstant sides, the gcd and both exact
        divisions run on dense rows (``_make_dense``) unless the rows would
        be sparse (``_dense_rows``).  Otherwise ``poly_gcd`` and
        ``poly_divexact``; a constant side needs no gcd at all.  Every path
        then ends in the same scaling, on the integers of both sides.
        """
        num._check_mate(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        base, nvars, p = num.base, num.nvars, num.base.p
        if num.is_zero:
            return RationalFunction(num, SparsePoly.const(base, nvars, base.one))
        if not (num.is_constant or den.is_constant):
            divided = _make_dense(num, den) if nvars == 1 else None
            if divided is not None:
                num, den = divided
            else:
                g = poly_gcd(num, den)
                if not g.is_constant:
                    num, den = poly_divexact(num, g), poly_divexact(den, g)
        nt, dt = num.ints, den.ints
        # scaling by a nonzero constant keeps the terms' order, so the
        # normalised tuples are built directly
        if p:
            inv = pow(dt[0][1], -1, p)
            nt = tuple((e, c * inv % p) for e, c in nt)
            dt = tuple((e, c * inv % p) for e, c in dt)
        else:
            # (N/dn) / (D/dd) = (N*dd) / (D*dn)
            g = math.gcd(num.denom, den.denom)
            sn, sd = den.denom // g, num.denom // g
            if sn != 1:
                nt = tuple((e, c * sn) for e, c in nt)
            if sd != 1:
                dt = tuple((e, c * sd) for e, c in dt)
            k = math.gcd(*map(_coeff, nt), *map(_coeff, dt))
            if dt[0][1] < 0:
                k = -k
            if k != 1:
                nt = tuple((e, c // k) for e, c in nt)
                dt = tuple((e, c // k) for e, c in dt)
        return RationalFunction(SparsePoly(base, nvars, nt), SparsePoly(base, nvars, dt))

    @staticmethod
    def from_poly(p: SparsePoly) -> "RationalFunction":
        return RationalFunction.make(p, SparsePoly.const(p.base, p.nvars, p.base.one))

    @staticmethod
    def const(base: BaseField, nvars: int, c) -> "RationalFunction":
        return RationalFunction.from_poly(SparsePoly.const(base, nvars, c))

    @staticmethod
    def variable(base: BaseField, nvars: int, i: int) -> "RationalFunction":
        # x_i / 1 is already in canonical form
        return RationalFunction(
            SparsePoly.variable(base, nvars, i), SparsePoly.const(base, nvars, base.one)
        )

    @property
    def base(self) -> BaseField:
        return self.num.base

    @property
    def nvars(self) -> int:
        return self.num.nvars

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.is_constant and self.den.is_constant

    def constant_value(self) -> Scalar:
        if not self.is_constant:
            raise PreconditionError("rational function is not constant")
        if self.num.is_zero:
            return self.base.zero
        return self.base.div(self.num.constant_value(), self.den.constant_value())

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction.make(self.num * other.den, self.den * other.num)

    def __pow__(self, n: int) -> "RationalFunction":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction.make(self.den, self.num) ** (-n)
        if n == 0:
            return RationalFunction.const(self.base, self.nvars, self.base.one)
        return power(self, n)

    def map_vars(self, mapping, new_nvars: int) -> "RationalFunction":
        """Reindex variables: old variable i becomes new variable mapping[i].

        An injective mapping is a renaming into a polynomial ring, which
        keeps num and den coprime and keeps their coefficients, so the
        result is canonical once den's new leading coefficient is: 1 over
        F_p (a scaling), positive over Q (a sign).  A mapping that merges
        variables can create a common factor and goes through ``make``.
        """
        num, den = self.num.map_vars(mapping, new_nvars), self.den.map_vars(mapping, new_nvars)
        if len(set(mapping)) < len(mapping):
            return RationalFunction.make(num, den)
        lead, p = den.ints[0][1], self.base.p
        if p and lead != 1:
            inv = pow(lead, -1, p)
            num, den = num._scale(inv), den._scale(inv)
        elif not p and lead < 0:
            num, den = -num, -den
        return RationalFunction(num, den)

    def evaluate(self, args) -> Scalar:
        d = self.den.evaluate(args)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.base.div(self.num.evaluate(args), d)

    def __str__(self):
        return ratfun_str(self, default_names(self.nvars))


def _make_dense(num: SparsePoly, den: SparsePoly):
    """num/g and den/g, g a gcd of two nonconstant polynomials in one
    variable, as integer polynomials up to a common constant factor, which
    ``make`` then scales away; computed on dense rows.  None when
    ``_dense_rows`` finds the rows too sparse."""
    # num/den = (N/dn)/(D/dd) = (N*dd)/(D*dn) for integer N and D
    dn, dd = num.denom, den.denom
    rows = _dense_rows({e: c * dd for (e,), c in num.ints}, {e: c * dn for (e,), c in den.ints})
    if rows is None:
        return None
    s, rn, rd = rows
    p = num.base.p
    g = dense.gcd(rn, rd, p)
    if len(g) > 1:
        rn, rd = dense.divexact(rn, g, p), dense.divexact(rd, g, p)
    return tuple(SparsePoly(num.base, 1, dense.to_ints(row, 0, s)) for row in (rn, rd))


def ratfun_str(f: RationalFunction, names) -> str:
    if f.den.is_constant and f.den.constant_value() == f.base.one:
        return poly_str(f.num, names)
    return f"({poly_str(f.num, names)})/({poly_str(f.den, names)})"


def substitute(f: SparsePoly, args, factors: dict | None = None) -> tuple[SparsePoly, SparsePoly]:
    """Evaluate f at rational-function arguments, one per variable, as (N, D).

    With d_i the degree of f in variable i, the result is N / D over the
    common denominator D = prod_i den_i ** d_i, where each term c * x^e of f
    adds c * prod_i num_i ** e_i * den_i ** (d_i - e_i) to N.  An argument
    whose numerator and denominator are single terms contributes, for each
    exponent, one exponent vector and one coefficient; any other argument
    contributes a polynomial.  Variables of degree zero contribute nothing.

    The expansion runs on integers.  Over Q the arguments are canonical, so
    their numerators and denominators are integral; f's integers go in
    as they are and its denominator goes into D.  Over F_p the sums are
    reduced once per variable pass.

    The factors num_i ** k * den_i ** r come from ``factors``, a table
    keyed like the power table of ``series``: id(a) maps to a itself (so no
    other argument takes over its id while the table lives) and a dict from
    (k, r) to the factor's integer terms.  A caller that evaluates many
    polynomials at the same arguments passes one table to every call; None
    gives a table for this call alone.

    N/D is f(args) before its normal form, which
    ``RationalFunction.make(*substitute(f, args))`` takes.  Some checks need
    none: N is zero iff f(args) is, and the value and the initial forms of
    f(args) are those of N over those of D, since both are multiplicative.
    """
    args = list(args)
    if len(args) != f.nvars:
        raise PreconditionError("wrong number of substitution arguments")
    base, p = f.base, f.base.p
    target_nvars = args[0].nvars if args else 0
    for a in args:
        if a.nvars != target_nvars or (a.base is not base and a.base != base):
            raise PreconditionError("substitution arguments live in different fields")
    degs = [max(col) for col in zip(*(e for e, _ in f.ints))]
    live = [i for i, d in enumerate(degs) if d]
    if p is None and any(args[i].num.denom != 1 or args[i].den.denom != 1 for i in live):
        raise PreconditionError("substitution argument is not in canonical form")
    table = {} if factors is None else factors
    tables = {i: table.setdefault(id(args[i]), (args[i], {}))[1] for i in live}
    # single-term arguments give single-term factors, multiplied in one pass
    monos = [i for i in live if len(args[i].num.ints) == 1 and len(args[i].den.ints) == 1]
    polys = [i for i in live if i not in monos]

    def factor(i: int, k: int) -> tuple:
        """The integer terms of num_i ** k * den_i ** (d_i - k)."""
        r = degs[i] - k
        out = tables[i].get((k, r))
        if out is None:
            num, den = args[i].num, args[i].den
            if i in monos:
                (en, cn), (ed, cd) = num.ints[0], den.ints[0]
                c = pow(cn, k, p) * pow(cd, r, p) % p if p else cn ** k * cd ** r
                out = ((tuple(k * x + r * y for x, y in zip(en, ed)), c),)
            else:
                out = (num ** k * den ** r).ints
            tables[i][(k, r)] = out
        return out

    def expand(c: int, ks) -> dict[Exps, int]:
        """c * prod_i factor(i, ks[i]) over the live variables, as a dict."""
        e = (0,) * target_nvars
        for i in monos:
            (eb, cb), = factor(i, ks[i])
            e, c = tuple(map(int.__add__, e, eb)), c * cb
        terms = {e: c % p if p else c}
        for i in polys:
            acc: dict[Exps, int] = {}
            for eb, cb in factor(i, ks[i]):
                for ea, ca in terms.items():
                    e = tuple(map(int.__add__, ea, eb))
                    acc[e] = acc.get(e, 0) + ca * cb
            terms = {e: v % p for e, v in acc.items()} if p else acc
        return terms

    num_terms: dict[Exps, int] = {}
    for e, c in f.ints:
        for te, tc in expand(c, e).items():
            num_terms[te] = num_terms.get(te, 0) + tc
    num = SparsePoly._canon(base, target_nvars, num_terms)
    return num, SparsePoly._canon(base, target_nvars, expand(f.denom, (0,) * f.nvars))

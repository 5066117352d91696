"""Sparse multivariate polynomials and rational functions in canonical form.

Polynomials store their terms as a tuple of (exponent tuple, coefficient)
pairs sorted in descending graded-lexicographic order with no zero
coefficients, so structural equality decides mathematical equality.
Coefficients are ``Fraction`` over the rationals and ints in ``[0, p)``
over a prime field.  Rational functions keep numerator and denominator
coprime; over the rationals both are integer polynomials with no common
integer content and the denominator's graded-lex leading coefficient is
positive, over a prime field the denominator is monic.

There are two ways in.  ``SparsePoly.make`` validates: it coerces every
coefficient and checks every exponent vector, and it is the constructor
for external input (parsers, JSON, user code).  ``SparsePoly._canon``
trusts: it takes a dict of canonical scalars keyed by valid exponent
tuples, sorts the keys and drops zeros, and is what the arithmetic here
uses on its own results.  Code that keeps both the order and the nonzero
coefficients (a shift of every exponent, a scaling by a unit) calls the
class directly.

Hot loops compute on plain integers, in the integer-row format of
``fields``.  ``_ints`` reads a polynomial over Q as integers over one
positive denominator (``clear_denominators``) and ``_from_ints`` reads
them back (``BaseField.settle_row``); products, ``substitute`` and the
normalisation in ``RationalFunction.make`` work on those integers and make
one ``Fraction`` per output coefficient.  ``substitute`` relies on one
invariant: over Q the numerator and denominator of a canonical rational
function are integral, so its arguments are read as integer polynomials.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

from . import dense
from .errors import PreconditionError
from .fields import BaseField, Frozen, Scalar, clear_denominators

Exps = tuple[int, ...]


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
    __slots__ = ("base", "nvars", "terms")

    def __init__(self, base: BaseField, nvars: int, terms: tuple[tuple[Exps, Scalar], ...]):
        set_base, set_nvars, set_terms, set_key = self._setters
        set_base(self, base)
        set_nvars(self, nvars)
        set_terms(self, terms)
        set_key(self, (base, nvars, terms))

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
        return SparsePoly._canon(base, nvars, acc)

    @staticmethod
    def _canon(base: BaseField, nvars: int, acc: dict) -> "SparsePoly":
        """Trusted: acc maps valid exponent tuples to canonical scalars."""
        return SparsePoly(base, nvars, tuple(
            sorted((t for t in acc.items() if t[1]), key=_term_key, reverse=True)
        ))

    @staticmethod
    def zero(base: BaseField, nvars: int) -> "SparsePoly":
        return SparsePoly(base, nvars, ())

    @staticmethod
    def const(base: BaseField, nvars: int, c) -> "SparsePoly":
        c = base.coerce(c)
        return SparsePoly(base, nvars, (((0,) * nvars, c),) if c else ())

    @staticmethod
    def variable(base: BaseField, nvars: int, i: int) -> "SparsePoly":
        e = [0] * nvars
        e[i] = 1
        return SparsePoly(base, nvars, ((tuple(e), base.one),))

    # -- queries -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        # the leading term has the largest total degree
        return not self.terms or not any(self.terms[0][0])

    def constant_value(self) -> Scalar:
        if self.is_zero:
            return self.base.zero
        if not self.is_constant:
            raise PreconditionError("polynomial is not constant")
        return self.terms[0][1]

    def total_degree(self) -> int:
        if self.is_zero:
            raise PreconditionError("degree of the zero polynomial")
        return sum(self.terms[0][0])

    def degree_in(self, var: int) -> int:
        if self.is_zero:
            raise PreconditionError("degree of the zero polynomial")
        return max(e[var] for e, _ in self.terms)

    def leading(self) -> tuple[Exps, Scalar]:
        if self.is_zero:
            raise PreconditionError("leading term of the zero polynomial")
        return self.terms[0]

    def coefficient(self, exps) -> Scalar:
        target = tuple(int(x) for x in exps)
        for e, c in self.terms:
            if e == target:
                return c
        return self.base.zero

    # -- arithmetic ----------------------------------------------------

    def _dict(self) -> dict[Exps, Scalar]:
        return dict(self.terms)

    def _check_mate(self, other: "SparsePoly"):
        if self.base != other.base or self.nvars != other.nvars:
            raise PreconditionError("polynomials live in different rings")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_mate(other)
        p = self.base.p
        acc = dict(self.terms)
        for e, c in other.terms:
            prev = acc.get(e)
            acc[e] = c if prev is None else (prev + c) % p if p else prev + c
        return SparsePoly._canon(self.base, self.nvars, acc)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.base, self.nvars,
                          tuple((e, self.base.neg(c)) for e, c in self.terms))

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check_mate(other)
        (a, da), (b, db) = _ints(self), _ints(other)
        acc: dict[Exps, int] = {}
        for ea, ca in a:
            for eb, cb in b:
                e = tuple(map(int.__add__, ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
        return _from_ints(self.base, self.nvars, acc, da * db)

    def scale(self, c) -> "SparsePoly":
        c = self.base.coerce(c)
        if c == 0:
            return SparsePoly.zero(self.base, self.nvars)
        return self._scale(c)

    def _scale(self, c) -> "SparsePoly":
        """Trusted: c is a nonzero canonical scalar; the terms keep their order."""
        mul = self.base.mul
        return SparsePoly(self.base, self.nvars, tuple((e, mul(k, c)) for e, k in self.terms))

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
        for e, c in self.terms:
            term = c
            for a, k in zip(args, e):
                if k:
                    term = base.mul(term, base.pow(a, k))
            total = base.add(total, term)
        return total

    def map_vars(self, mapping, new_nvars: int) -> "SparsePoly":
        """Reindex variables: old variable i becomes new variable mapping[i]."""
        if len(mapping) != self.nvars:
            raise PreconditionError("variable mapping has the wrong length")
        p = self.base.p
        acc: dict[Exps, Scalar] = {}
        for e, c in self.terms:
            ne = [0] * new_nvars
            for i, k in enumerate(e):
                if k:
                    ne[mapping[i]] += k
            ne = tuple(ne)
            prev = acc.get(ne)
            acc[ne] = c if prev is None else (prev + c) % p if p else prev + c
        return SparsePoly._canon(self.base, new_nvars, acc)

    def __str__(self):
        return poly_str(self, default_names(self.nvars))


def _ints(f: SparsePoly) -> tuple[list[tuple[Exps, int]], int]:
    """f's terms as integers over one positive denominator d: f = (1/d) sum.

    Over a prime field the coefficients already are ints and d is 1.
    """
    if f.base.p:
        return f.terms, 1
    nums, d = clear_denominators([c for _, c in f.terms])
    return list(zip([e for e, _ in f.terms], nums)), d


def _from_ints(base: BaseField, nvars: int, acc: dict, d: int = 1) -> SparsePoly:
    """The polynomial (1/d) sum_e acc[e] x^e, from integer coefficients."""
    return SparsePoly._canon(base, nvars, dict(zip(acc, base.settle_row(acc.values(), d))))


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
    for e, c in f.terms:
        if e[var] < i:
            continue
        ne = list(e)
        ne[var] -= i
        out[tuple(ne)] = f.base.mul(c, math.comb(e[var], i))
    return SparsePoly._canon(f.base, f.nvars, out)


# ---------------------------------------------------------------------------
# GCD machinery (primitive remainder sequences over the base field)


def _split_main(f: SparsePoly) -> dict[int, SparsePoly]:
    """View f as a univariate polynomial in variable 0 with SparsePoly coefficients."""
    buckets: dict[int, list] = {}
    for e, c in f.terms:
        buckets.setdefault(e[0], []).append((e[1:], c))
    # within one bucket e[0] is fixed, so the grlex order of e is that of e[1:]
    return {
        d: SparsePoly(f.base, f.nvars - 1, tuple(pairs))
        for d, pairs in buckets.items()
    }


def _join_main(base: BaseField, nvars: int, coeffs: dict[int, SparsePoly]) -> SparsePoly:
    out = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms:
            out[(d,) + e] = c
    return SparsePoly._canon(base, nvars, out)


def poly_content(f: SparsePoly) -> SparsePoly:
    """GCD of the coefficients of f seen as univariate in variable 0."""
    coeffs = list(_split_main(f).values())
    return reduce(poly_gcd, coeffs) if coeffs else SparsePoly.zero(f.base, f.nvars - 1)


def _min_exps(f: SparsePoly) -> tuple[int, ...]:
    return tuple(min(e[i] for e, _ in f.terms) for i in range(f.nvars))


def _shift_down(f: SparsePoly, shift) -> SparsePoly:
    if not any(shift):
        return f
    # one shift for every term keeps the grlex order
    return SparsePoly(
        f.base, f.nvars, tuple((tuple(map(int.__sub__, e, shift)), c) for e, c in f.terms)
    )


# most entries per term that a dense row of a univariate gcd may hold
_DENSE_FILL = 64


def _specialised(f: SparsePoly, var: int, point=()) -> dict[int, int]:
    """f as {exponent of var: integer}, every other variable specialised at
    the integers point; over Q without f's common denominator."""
    p, out = f.base.p, {}
    for e, c in _ints(f)[0]:
        for x, k in zip(point, e[:var] + e[var + 1 :]):
            if k:
                c *= pow(x, k, p)
        out[e[var]] = out.get(e[var], 0) + c
    return {e: c for e, c in ((e, c % p if p else c) for e, c in out.items()) if c}


def _gcd_map(a: dict, b: dict, p) -> dict:
    """A gcd of two nonzero {exponent: integer} maps: monic over F_p, and a
    gcd up to a constant factor over Q.

    Dense rows in x^s, s the gcd of the exponents, when each holds at most
    _DENSE_FILL entries per term.  Otherwise, as for x^(10^8) + x, a sparse
    Euclid whose memory stays that of the terms."""
    s = math.gcd(*a, *b) or 1
    if all(max(m) // s < _DENSE_FILL * len(m) for m in (a, b)):
        rows = [[0] * (max(m) // s + 1) for m in (a, b)]
        for row, m in zip(rows, (a, b)):
            for e, c in m.items():
                row[e // s] = c
        return {k * s: c for k, c in enumerate(dense.gcd(*rows, p)) if c}
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
        return _from_ints(base, 1, {(e,): c for e, c in h.items()}, h[max(h)])

    sf, sg = _min_exps(f), _min_exps(g)
    mono = SparsePoly(base, f.nvars, ((tuple(map(min, sf, sg)), base.one),))
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
        shift = SparsePoly(a.base, nv, (((dr - db,) + (0,) * (nv - 1), a.base.one),))
        r = lead_b * r - shift * lift(cr[dr]) * b
    return r


def poly_divexact(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """Exact quotient f/g; raises if g does not divide f."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    base = f.base
    rem = f._dict()
    out: dict[Exps, Scalar] = {}
    ge, gc = g.leading()
    while rem:
        e = max(rem, key=_grlex_key)
        c = rem[e]
        qe = tuple(a - b for a, b in zip(e, ge))
        if any(x < 0 for x in qe):
            raise PreconditionError("polynomial division is not exact")
        qc = base.div(c, gc)
        out[qe] = base.add(out.get(qe, base.zero), qc)
        for te, tc in g.terms:
            key = tuple(a + b for a, b in zip(qe, te))
            val = base.sub(rem.get(key, base.zero), base.mul(qc, tc))
            if val == 0:
                rem.pop(key, None)
            else:
                rem[key] = val
    return SparsePoly._canon(base, f.nvars, out)


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
        num._check_mate(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        base, nvars, p = num.base, num.nvars, num.base.p
        if num.is_zero:
            return RationalFunction(num, SparsePoly.const(base, nvars, base.one))
        if not (num.is_constant or den.is_constant):
            g = poly_gcd(num, den)
            if not g.is_constant:
                num = poly_divexact(num, g)
                den = poly_divexact(den, g)
        # scaling by a nonzero constant keeps the terms' order, so the
        # normalised tuples are built directly
        if p:
            inv = pow(den.terms[0][1], -1, p)
            ns = tuple((e, c * inv % p) for e, c in num.terms)
            ds = tuple((e, c * inv % p) for e, c in den.terms)
        else:
            terms = num.terms + den.terms
            ints, _ = clear_denominators([c for _, c in terms])
            k = math.gcd(*ints)
            if ints[len(num.terms)] < 0:
                k = -k
            scaled = [(e, Fraction(v // k)) for (e, _), v in zip(terms, ints)]
            ns, ds = tuple(scaled[: len(num.terms)]), tuple(scaled[len(num.terms):])
        return RationalFunction(SparsePoly(base, nvars, ns), SparsePoly(base, nvars, ds))

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
        return RationalFunction.make(
            self.num.map_vars(mapping, new_nvars), self.den.map_vars(mapping, new_nvars)
        )

    def evaluate(self, args) -> Scalar:
        d = self.den.evaluate(args)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.base.div(self.num.evaluate(args), d)

    def __str__(self):
        return ratfun_str(self, default_names(self.nvars))


def ratfun_str(f: RationalFunction, names) -> str:
    if f.den.is_constant and f.den.constant_value() == f.base.one:
        return poly_str(f.num, names)
    return f"({poly_str(f.num, names)})/({poly_str(f.den, names)})"


def substitute(f: SparsePoly, args) -> RationalFunction:
    """Evaluate f at rational-function arguments, one per variable.

    With d_i the degree of f in variable i, the result is N / D over the
    common denominator D = prod_i den_i ** d_i, where each term c * x^e of f
    adds c * prod_i num_i ** e_i * den_i ** (d_i - e_i) to N.  An argument
    whose numerator and denominator are single terms contributes, for each
    exponent, one exponent vector and one coefficient; any other argument
    contributes a polynomial computed once per distinct exponent.  Variables
    of degree zero contribute nothing.

    The expansion runs on integers.  Over Q the arguments are canonical, so
    their numerators and denominators are integral; f is scaled once by the
    lcm L of its coefficient denominators and L goes into D.  Over F_p the
    sums are reduced once per variable pass.
    """
    args = list(args)
    if len(args) != f.nvars:
        raise PreconditionError("wrong number of substitution arguments")
    if not args:
        return RationalFunction.const(f.base, 0, f.constant_value() if not f.is_zero else 0)
    target_nvars = args[0].nvars
    base, p = f.base, f.base.p
    for a in args:
        if a.nvars != target_nvars or a.base != base:
            raise PreconditionError("substitution arguments live in different fields")
    if f.is_zero:
        return RationalFunction.const(base, target_nvars, 0)
    degs = [max(col) for col in zip(*(e for e, _ in f.terms))]
    live = [i for i, d in enumerate(degs) if d]
    if p is None and any(
        c.denominator != 1 for i in live for g in (args[i].num, args[i].den) for _, c in g.terms
    ):
        raise PreconditionError("substitution argument is not in canonical form")
    factors: dict[tuple[int, int], tuple] = {}

    def factor(i: int, k: int) -> tuple:
        """The integer terms of num_i ** k * den_i ** (d_i - k)."""
        out = factors.get((i, k))
        if out is None:
            num, den, r = args[i].num, args[i].den, degs[i] - k
            if len(num.terms) == 1 and len(den.terms) == 1:
                (en, cn), (ed, cd) = num.terms[0], den.terms[0]
                exps = tuple(k * a + r * b for a, b in zip(en, ed))
                if p:
                    c = pow(cn, k, p) * pow(cd, r, p) % p
                else:
                    c = cn.numerator ** k * cd.numerator ** r
                out = ((exps, c),)
            else:
                out = _ints(num ** k * den ** r)[0]
            factors[(i, k)] = out
        return out

    def expand(c: int, ks) -> dict[Exps, int]:
        """c * prod_i factor(i, ks[i]) over the live variables, as a dict."""
        terms = {(0,) * target_nvars: c}
        for i in live:
            acc: dict[Exps, int] = {}
            for eb, cb in factor(i, ks[i]):
                for ea, ca in terms.items():
                    e = tuple(map(int.__add__, ea, eb))
                    acc[e] = acc.get(e, 0) + ca * cb
            terms = {e: v % p for e, v in acc.items()} if p else acc
        return terms

    fi, lcm = _ints(f)
    num_terms: dict[Exps, int] = {}
    for e, c in fi:
        for te, tc in expand(c, e).items():
            num_terms[te] = num_terms.get(te, 0) + tc
    num = _from_ints(base, target_nvars, num_terms)
    den = _from_ints(base, target_nvars, expand(lcm, (0,) * f.nvars))
    return RationalFunction.make(num, den)

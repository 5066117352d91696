"""Discrete rational places realized through truncated series, and the
uniformization pipeline that runs through the completion.

The field is K0(t, z) with t a uniformizing transcendental and z an
algebraic generator given by a monic minimal polynomial over K0[t]
together with a residue; z itself is realized as a truncated root series
by Hensel lifting.  Elements are rational functions in (t, z); their
values are series orders, their residues the constant coefficients.

The pipeline splits any requested valuation-ring element into a short
relative block over K0(t) (three rows built from a separating truncation
a, the exact leading monomial b of the remainder, and the minimal
polynomial of w = b/(zeta - a), whose reduction is X^k - X^(k-1) in every
characteristic), collects all coefficient-field elements those blocks
use, uniformizes the coefficients over K0(t) with the monomial machinery,
and composes the two layers into one ground system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .errors import (
    InsufficientPrecisionError,
    NotInValuationRingError,
    PreconditionError,
)
from .fields import BaseField, Scalar
from .polyfield import (
    RationalFunction,
    SparsePoly,
    hasse_derivative,
    ratfun_str,
)
from .series import (
    TruncatedSeries,
    equal_to_precision,
    eval_poly_at_series,
    eval_ratfun_at_series,
    poly_to_series,
)
from .surd import SurdScalar
from .uniformize import TriangularSystem, compose, uniformize_abhyankar
from .valuation import MonomialPlace
from .valuegroup import GroupOrder

DEFAULT_PRECISION = 32


# ---------------------------------------------------------------------------
# The place handle and its verification context


@dataclass(frozen=True)
class DiscreteSeriesPlace:
    """K0(t, gens) with each generator realized as a truncated series."""

    base: BaseField
    uniformizer: str = "t"
    gen_names: tuple[str, ...] = ()
    gen_series: tuple[TruncatedSeries, ...] = ()
    precision: int = DEFAULT_PRECISION

    def __post_init__(self):
        if self.precision < 1:
            raise PreconditionError("precision must be at least 1")
        if len(self.gen_names) != len(self.gen_series):
            raise PreconditionError("generator names and series do not match up")
        names = (self.uniformizer,) + self.gen_names
        if len(set(names)) != len(names):
            raise PreconditionError("ambient generator names must be distinct")
        for name, s in zip(self.gen_names, self.gen_series):
            if s.base != self.base:
                raise PreconditionError(f"series for {name!r} is over the wrong field")
            if s.precision < self.precision:
                raise PreconditionError(
                    f"series for {name!r} is known to precision {s.precision}, "
                    f"the place claims {self.precision}"
                )
            o = s.order()
            if o is not None and o < 0:
                raise PreconditionError(f"generator {name!r} has negative value")

    @property
    def ambient_names(self) -> tuple[str, ...]:
        return (self.uniformizer,) + self.gen_names

    @property
    def nvars(self) -> int:
        return 1 + len(self.gen_names)

    def make_context(self, precision: int | None = None) -> "SeriesContext":
        return SeriesContext(self, precision)

    def element_series(self, rf: RationalFunction, precision: int | None = None) -> TruncatedSeries:
        return self.make_context(precision).ambient(rf)


class SeriesContext:
    """Evaluation of ambient rational functions into truncated series."""

    def __init__(self, place: DiscreteSeriesPlace, precision: int | None = None):
        if precision is None:
            precision = place.precision
        if precision > place.precision:
            # the place's series are fixed, so no rerun can reach more
            raise PreconditionError(
                f"place is realized to precision {place.precision}, "
                f"{precision} was requested"
            )
        self.place = place
        self.precision = precision
        self.zero = 0
        t = TruncatedSeries.monomial(place.base, 1, precision)
        self.args = [t] + [g.truncate(precision) for g in place.gen_series]

    def ambient(self, rf: RationalFunction) -> TruncatedSeries:
        if rf.nvars != self.place.nvars or rf.base != self.place.base:
            raise PreconditionError("element does not live in the ambient field")
        return eval_ratfun_at_series(rf, self.args, self.precision)

    def coeff(self, rf: RationalFunction, names) -> TruncatedSeries:
        amb = self.place.ambient_names
        try:
            picked = [self.args[amb.index(n)] for n in names]
        except ValueError:
            raise PreconditionError(
                "coefficient field names missing from the ambient field"
            ) from None
        if rf.nvars != len(picked):
            raise PreconditionError("coefficient entry has the wrong width")
        return eval_ratfun_at_series(rf, picked, self.precision)

    def generator(self, i: int) -> TruncatedSeries:
        return self.args[i]

    def eval_poly(self, f: SparsePoly, args) -> TruncatedSeries:
        return eval_poly_at_series(f, args, self.precision)

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


# ---------------------------------------------------------------------------
# Hensel lifting


def hensel_lift_root(f: SparsePoly, x0, precision: int) -> TruncatedSeries:
    """Root series of f(t, X) starting from a simple residue root x0.

    Requires f(0, x0) = 0 and (df/dX)(0, x0) != 0; Newton steps double the
    correct precision each round, and remain valid in characteristic p
    because only the first derivative is involved.  The inverse of f'(z)
    is carried along as a second Newton iterate, one doubling per round,
    instead of being recomputed from scratch.
    """
    if f.nvars != 2:
        raise PreconditionError("expected a polynomial in (t, X)")
    if precision < 1:
        raise PreconditionError("precision must be at least 1")
    base = f.base
    x0 = base.coerce(x0)

    def at_residue(g: SparsePoly) -> Scalar:  # g(0, x0)
        return base.coerce(sum(c * base.pow(x0, e[1]) for e, c in g.terms if e[0] == 0))

    if at_residue(f) != 0:
        raise PreconditionError("x0 is not a root of the reduction")
    dfdx = hasse_derivative(f, 1, var=1)
    d0 = at_residue(dfdx)
    if d0 == 0:
        raise PreconditionError(
            "x0 is not a simple root of the reduction; the root does not lift"
        )
    z = TruncatedSeries.constant(base, x0, 1)
    w = TruncatedSeries.constant(base, base.inv(d0), 1)
    t = TruncatedSeries.monomial(base, 1, precision)  # each evaluation below caps its terms at p2
    two = TruncatedSeries.constant(base, 2, precision)
    p = 1
    while p < precision:
        p2 = min(2 * p, precision)
        # the known coefficients form a polynomial approximant; Newton
        # corrects everything beyond the old precision automatically.
        # f(zt) vanishes below p, so w = 1/f'(z) below p settles z below p2
        zt = TruncatedSeries(base, z.offset, z.coeffs, p2)
        z = zt - eval_poly_at_series(f, [t, zt], p2) * w
        if p2 < precision:
            # the second Newton iterate, w <- w (2 - f'(z) w): 1/f'(z) below p2
            wt = TruncatedSeries(base, w.offset, w.coeffs, p2)
            w = wt * (two - eval_poly_at_series(dfdx, [t, z], p2) * wt)
        p = p2
    return z


# ---------------------------------------------------------------------------
# Separating truncations and the value formula


@dataclass(frozen=True)
class ApproximationWitness:
    """A truncation a of z and the monomial b with distinct term values.

    For each input polynomial the table lists (i, v(f^[i](a) * b^i)) over
    the indices with f^[i](a) nonzero; all listed values are pairwise
    distinct, which makes  v f(z) = min_i v(f^[i](a) b^i)  exact.
    """

    fs: tuple[SparsePoly, ...]
    z: TruncatedSeries
    a: SparsePoly
    b_coeff: Scalar
    b_exp: int
    depth: int
    tables: tuple[tuple[tuple[int, int], ...], ...]


def _truncation_poly(z: TruncatedSeries, below: int) -> SparsePoly:
    """The terms of z with exponent < below, as a polynomial in t."""
    if z.order() is not None and z.order() < 0:
        raise PreconditionError("series with negative order cannot be truncated to a polynomial")
    out = []
    for k in range(max(0, z.offset), min(below, z.precision)):
        c = z.coefficient(k)
        if c != 0:
            out.append(((k,), c))
    return SparsePoly.make(z.base, 1, out)


def _value_table(f: SparsePoly, a: SparsePoly, b_exp: int) -> tuple[tuple[int, int], ...]:
    """(i, v(f^[i](a) b^i)) for every i with f^[i](a) nonzero; exact."""
    if f.nvars != 2:
        raise PreconditionError("expected a polynomial in (t, X)")
    deg = f.degree_in(1) if not f.is_zero else 0
    rows = []
    for i in range(deg + 1):
        fi = hasse_derivative(f, i, var=1)
        val = _eval_at_poly(fi, a)
        if val.is_zero:
            continue
        ord_t = min(e[0] for e, _ in val.terms)
        rows.append((i, ord_t + i * b_exp))
    return tuple(rows)


def _eval_at_poly(f: SparsePoly, a: SparsePoly) -> SparsePoly:
    """f(t, a(t)) as an exact polynomial in t."""
    base = f.base
    acc = SparsePoly.zero(base, 1)
    for e, c in f.terms:
        term = SparsePoly.make(base, 1, [((e[0],), c)])
        acc = acc + term * (a ** e[1])
    return acc


def kaplansky_normalize(fs, z: TruncatedSeries, max_depth: int | None = None) -> ApproximationWitness:
    """Find a truncation a of z whose term values separate, per polynomial.

    Doubles the truncation depth until, for every input polynomial, the
    nonzero values v(f^[i](a) b^i) are pairwise distinct, where b is the
    exact leading monomial of z - a.  Raises InsufficientPrecisionError
    (carrying the last depth tried) when the series precision runs out
    before separation happens.
    """
    fs = tuple(fs)
    for f in fs:
        if f.nvars != 2:
            raise PreconditionError("polynomials must live in (t, X)")
    if z.is_zero_to_precision:
        raise InsufficientPrecisionError(
            "series is zero to its precision; nothing to normalize", needed=z.precision
        )
    offset = z.known_order()
    if offset < 0:
        raise PreconditionError("series must lie in the valuation ring")
    d = 1
    while True:
        if max_depth is not None and d > max_depth:
            raise InsufficientPrecisionError(
                f"no separating truncation up to depth {max_depth}", needed=d
            )
        below = offset + d
        if below > z.precision:
            raise InsufficientPrecisionError(
                "series precision exhausted before the term values separated",
                needed=below,
            )
        a = _truncation_poly(z, below)
        rest = z - poly_to_series(a, z.precision)
        if rest.is_zero_to_precision:
            raise InsufficientPrecisionError(
                "z - a vanishes to precision; cannot take its leading monomial",
                needed=z.precision + 1,
            )
        b_exp = rest.known_order()
        b_coeff = rest.coefficient(b_exp)
        tables = tuple(_value_table(f, a, b_exp) for f in fs)
        if all(len({v for _, v in tab}) == len(tab) for tab in tables):
            return ApproximationWitness(
                fs=fs, z=z, a=a, b_coeff=b_coeff, b_exp=b_exp, depth=d, tables=tables
            )
        d *= 2


def value_via_lvpol(witness: ApproximationWitness, f: SparsePoly) -> int:
    """v f(z) as min_i v(f^[i](a) b^i), valid because those values are distinct."""
    tab = None
    for g, t in zip(witness.fs, witness.tables):
        if g == f:
            tab = t
            break
    if tab is None:
        tab = _value_table(f, witness.a, witness.b_exp)
        if len({v for _, v in tab}) != len(tab):
            raise PreconditionError(
                "the witness truncation does not separate this polynomial's term values"
            )
    if not tab:
        raise PreconditionError("f vanishes identically at the witness data")
    return min(v for _, v in tab)


# ---------------------------------------------------------------------------
# The quotient ring K0(t)[X]/(m), computed fraction-free over K0[t]
#
# An element of K0[t] is a dense coefficient list, lowest degree first, with
# no trailing zeros: ints in [0, p) over F_p, and plain ints over Q, where
# every denominator is cleared on the way in.  A ring element is a vector of
# dim such lists over the power basis 1, X, ..., X^(dim-1), read over one
# common denominator in K0[t] that is kept beside it.  m is monic in X, so
# reduction modulo m never divides.  Linear algebra is Bareiss elimination
# (E. H. Bareiss, 1968): every entry after a step is a minor of the input
# rows, so dividing by the previous pivot is exact in K0[t] and needs no gcd.
# The only gcds are the ones RationalFunction.make takes, once per output
# coefficient of a minimal polynomial.


def _kt_trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _kt_add(a: list, b: list, p: int) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p if p else out[i] + y
    return _kt_trim(out)


def _kt_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return [c % p for c in out] if p else out


def _kt_divexact(a: list, b: list, p: int) -> list:
    """a / b in K0[t], where b is known to divide a."""
    if not a or b == [1]:
        return a
    a, n, lead = list(a), len(b) - 1, b[-1]
    inv = pow(lead, -1, p) if p else 0
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + n] * inv % p if p else a[k + n] // lead
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return q


def _kt_unit(n: int, j: int) -> list:
    return [[1] if i == j else [] for i in range(n)]


class _QuotientRing:
    """K0(t)[X]/(m) for a monic m in (t, X), and the minimal polynomials of
    its elements over K0(t)."""

    def __init__(self, m: SparsePoly, names):
        self.base = m.base
        self.p = m.base.characteristic
        self.names = tuple(names)
        self.dim = m.degree_in(1)
        # over Q, the coordinate Y = L*X with L the lcm of m's denominators
        # makes m monic with integer coefficients
        self.L = 1 if self.p else math.lcm(*(c.denominator for _, c in m.terms))
        self.neg_m = [_kt_mul(c, [-1], self.p) for c in self._split(m)[0][:-1]]

    def _split(self, f: SparsePoly) -> tuple[list, int]:
        """(P, s) with f = P(Y)/s: P over Y with K0[t] entries, s an integer."""
        if f.is_zero:
            return [], 1
        n = f.degree_in(1)
        P = [[0] * (f.degree_in(0) + 1) for _ in range(n + 1)]
        for (i, j), c in f.terms:
            P[j][i] = c * self.L ** (n - j)
        if self.p:
            return [_kt_trim(row) for row in P], 1
        s = math.lcm(*(c.denominator for row in P for c in row))
        return [_kt_trim([int(c * s) for c in row]) for row in P], s * self.L**n

    def _reduce(self, P: list) -> list:
        """P modulo m, as a vector of length dim."""
        P, dim, p = list(P), self.dim, self.p
        for k in range(len(P) - 1, dim - 1, -1):
            if P[k]:
                for i, c in enumerate(self.neg_m):
                    P[k - dim + i] = _kt_add(P[k - dim + i], _kt_mul(P[k], c, p), p)
        return P[:dim] + [[]] * (dim - len(P))

    def _mul(self, A: list, B: list) -> list:
        p = self.p
        out = [[] for _ in range(len(A) + len(B) - 1)]
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B):
                    out[i + j] = _kt_add(out[i + j], _kt_mul(a, b, p), p)
        return self._reduce(out)

    def _eliminate(self, pivots: list, row: list):
        """One more row through the Bareiss steps of the pivot rows.

        Returns the row's tail (past the first dim columns) when its head
        reduces to zero; otherwise records the row as a pivot and returns None.
        """
        p, prev = self.p, [1]
        for col, prow in pivots:
            piv, neg_c = prow[col], _kt_mul(row[col], [-1], p)
            row = [
                _kt_divexact(_kt_add(_kt_mul(piv, x, p), _kt_mul(neg_c, y, p), p), prev, p)
                for x, y in zip(row, prow)
            ]
            prev = piv
        col = next((j for j in range(self.dim) if row[j]), None)
        if col is None:
            return row[self.dim:]
        pivots.append((col, row))
        return None

    def _poly(self, c: list) -> SparsePoly:
        return SparsePoly.make(self.base, 1, [((i,), v) for i, v in enumerate(c) if v])

    def min_poly(self, f: RationalFunction) -> list:
        """Monic minimal polynomial of f over K0(t), lowest coefficient first."""
        dim, p = self.dim, self.p
        num, num_s = self._split(f.num)
        den, den_s = self._split(f.den)
        D = self._reduce(den)
        if not any(D):
            raise ZeroDivisionError(self._bad_denominator(f, "vanishes"))
        # rows D*X^j (j < dim), then 1; their dependency
        # sum_j e_j D X^j + e_dim = 0 gives 1/D = -(sum_j e_j X^j)/e_dim
        pivots: list = []
        col = D
        for j in range(dim):
            if self._eliminate(pivots, col + _kt_unit(dim + 1, j)) is not None:
                raise PreconditionError(self._bad_denominator(f, "is a zero divisor"))
            col = self._reduce([[]] + col)
        e = self._eliminate(pivots, _kt_unit(dim, 0) + _kt_unit(dim + 1, dim))
        # f = A/d over the common denominator d
        A = self._mul(self._reduce(num), [_kt_mul(c, [-den_s], p) for c in e[:dim]])
        d = _kt_mul(e[dim], [num_s], p)
        # the first dependency sum_i e_i A^i = 0 among the powers of A gives
        # sum_i e_i d^i f^i = 0
        pivots, power = [], _kt_unit(dim, 0)
        for k in range(dim + 1):
            e = self._eliminate(pivots, power + _kt_unit(dim + 1, k))
            if e is not None:
                break
            power = self._mul(power, A)
        else:  # pragma: no cover - dimension bound
            raise PreconditionError("no dependency found below the ring dimension")
        out, d_pow = [RationalFunction.const(self.base, 1, 1)], d
        for i in range(k - 1, -1, -1):
            den_i = self._poly(_kt_mul(e[k], d_pow, p))
            out.append(RationalFunction.make(self._poly(e[i]), den_i))
            d_pow = _kt_mul(d_pow, d, p)
        return out[::-1]

    def _bad_denominator(self, f: RationalFunction, how: str) -> str:
        return (
            f"element {ratfun_str(f, self.names)} has a denominator that {how} "
            "modulo the minimal polynomial"
        )


# ---------------------------------------------------------------------------
# Relative triangular blocks over the coefficient field K0(t)


class _CoeffPool:
    """Ordered, deduplicated registry of coefficient-field elements.

    Non-constant elements of K0(t) become c-variables; constants are
    inlined into the rows directly.
    """

    def __init__(self, base: BaseField):
        self.base = base
        self.entries: list[RationalFunction] = []

    def ref(self, rf: RationalFunction):
        """('const', scalar) or ('coeff', index)."""
        if rf.is_constant:
            return ("const", rf.constant_value())
        for i, known in enumerate(self.entries):
            if known == rf:
                return ("coeff", i)
        self.entries.append(rf)
        return ("coeff", len(self.entries) - 1)


class _RowBuilder:
    """Accumulates one row as terms over (t-vars | X-vars | c-vars).

    Widths are not known until the pool is frozen, so terms carry the
    c-index separately and are materialized at the end.
    """

    def __init__(self, base: BaseField, s: int, n: int):
        self.base = base
        self.s = s
        self.n = n
        self.terms: list[tuple[tuple[int, ...], int | None, Scalar]] = []

    def add(self, txexp: tuple[int, ...], ref_or_none, scalar: Scalar = 1):
        """txexp covers the s + n leading variables; ref is a pool ref or None."""
        c_idx = None
        c = self.base.coerce(scalar)
        if ref_or_none is not None:
            kind, payload = ref_or_none
            if kind == "const":
                c = self.base.mul(c, payload)
            else:
                c_idx = payload
        if c != 0:
            self.terms.append((tuple(txexp), c_idx, c))

    def materialize(self, nc: int) -> SparsePoly:
        width = self.s + self.n + nc
        out = []
        for txexp, c_idx, c in self.terms:
            e = list(txexp) + [0] * nc
            if c_idx is not None:
                e[self.s + self.n + c_idx] += 1
            out.append((tuple(e), c))
        return SparsePoly.make(self.base, width, out)


def _rf_in_ring(rf: RationalFunction) -> bool:
    """Order of a K0(t) element at t = 0 is >= 0."""
    if rf.is_zero:
        return True
    ord_num = min(e[0] for e, _ in rf.num.terms)
    ord_den = min(e[0] for e, _ in rf.den.terms)
    return ord_num - ord_den >= 0


def _monomial_poly(base: BaseField, coeff: Scalar, exp: int) -> SparsePoly:
    return SparsePoly.make(base, 1, [((exp,), coeff)])


def _ambient_rf_from_t_poly(base: BaseField, nvars: int, p: SparsePoly) -> RationalFunction:
    """Lift a polynomial in t alone into the ambient (t, gens) ring."""
    lifted = p.map_vars([0], nvars)
    return RationalFunction.from_poly(lifted)


@dataclass
class _Block:
    rows: list
    etas: list
    zeta_eta: int
    witness_exprs: list


def _series_leading_monomial(s: TruncatedSeries) -> tuple[Scalar, int]:
    if s.is_zero_to_precision:
        raise InsufficientPrecisionError(
            "series vanishes to precision; its leading monomial is not determined",
            needed=s.precision + 1,
        )
    e = s.known_order()
    return s.coefficient(e), e


def _zeta_block(
    pool: _CoeffPool,
    ring: _QuotientRing,
    ctx: SeriesContext,
    conj_series: list[TruncatedSeries],
    zeta: RationalFunction,
    n_before: int,
) -> _Block:
    """Rows for one valuation-ring element of K0(t, z).

    Elements of K0(t) itself give a single row X - c.  Anything of degree
    k >= 2 over K0(t) gives three rows: the minimal polynomial of
    w = b/(zeta - a) (whose reduction is X^k - X^(k-1)), the inversion row
    X_w * X_winv - 1, and the affine row X_zeta - b*X_winv - a.
    """
    base = pool.base
    nvars = ctx.place.nvars

    h = ring.min_poly(zeta)
    k = len(h) - 1

    if k == 1:
        # zeta already lies in K0(t): one affine row X - c
        c_rf = -h[0]
        if not _rf_in_ring(c_rf):
            raise NotInValuationRingError(
                f"element {ratfun_str(zeta, ctx.place.ambient_names)} lies outside the valuation ring"
            )
        row = ("affine1", n_before, pool.ref(c_rf))
        return _Block(rows=[row], etas=[zeta], zeta_eta=0, witness_exprs=[])

    # realize zeta and its conjugates as series; conj_series[0] is z itself
    conj_vals = [
        eval_ratfun_at_series(zeta, [ctx.args[0], czs], ctx.precision) for czs in conj_series
    ]
    zs = conj_vals[0]
    # cluster the conjugate values; the number of distinct ones must be k
    reps: list[TruncatedSeries] = []
    for v in conj_vals:
        if not any(equal_to_precision(v, r) for r in reps):
            reps.append(v)
    if len(reps) != k:
        raise InsufficientPrecisionError(
            f"found {len(reps)} distinct conjugate expansions but the minimal "
            f"polynomial has degree {k}; raise the precision",
            needed=2 * ctx.precision,
        )
    others = [r for r in reps if not equal_to_precision(r, zs)]
    if len(others) != k - 1:
        raise InsufficientPrecisionError(
            "conjugate expansions do not separate from the element itself",
            needed=2 * ctx.precision,
        )

    o = zs.order()
    if o is not None and o < 0:
        raise NotInValuationRingError(
            f"element {ratfun_str(zeta, ctx.place.ambient_names)} lies outside the valuation ring"
        )
    exps = []
    for r in others:
        diff = zs - r
        if diff.is_zero_to_precision:
            raise InsufficientPrecisionError(
                "conjugates collide to precision", needed=2 * ctx.precision
            )
        exps.append(diff.known_order())
    below = max(exps) + 1 if exps else 1
    below = max(below, 1)
    a_poly = _truncation_poly(zs, below)
    rest = zs - poly_to_series(a_poly, zs.precision)
    b_coeff, b_exp = _series_leading_monomial(rest)
    b_poly = _monomial_poly(base, b_coeff, b_exp)

    a_amb = _ambient_rf_from_t_poly(base, nvars, a_poly)
    b_amb = _ambient_rf_from_t_poly(base, nvars, b_poly)
    w_amb = b_amb / (zeta - a_amb)
    winv_amb = (zeta - a_amb) / b_amb

    hw = ring.min_poly(w_amb)
    if len(hw) - 1 != k:
        raise PreconditionError(
            "w = b/(zeta - a) does not generate the same extension; "
            "this lies outside the realized scope"
        )
    # sanity: each coefficient must lie in the valuation ring and reduce to
    # the coefficients of X^k - X^(k-1)
    for i, c in enumerate(hw):
        if not _rf_in_ring(c):
            raise PreconditionError(
                "minimal polynomial of w has a coefficient outside the valuation ring"
            )
        res = _rf_residue_at_zero(base, c)
        want = base.zero
        if i == k:
            want = base.one
        elif i == k - 1:
            want = base.neg(base.one)
        if res != want:
            raise InsufficientPrecisionError(
                "minimal polynomial of w does not reduce to X^k - X^(k-1); "
                "the truncation depth or precision is too small",
                needed=2 * ctx.precision,
            )

    rows = [
        ("minpoly", n_before, [pool.ref(c) for c in hw[:-1]], k),
        ("invert", n_before, n_before + 1),
        (
            "affine3",
            n_before + 2,
            n_before + 1,
            pool.ref(RationalFunction.from_poly(b_poly)),
            pool.ref(RationalFunction.from_poly(a_poly)) if not a_poly.is_zero else None,
        ),
    ]
    etas = [w_amb, winv_amb, zeta]
    return _Block(rows=rows, etas=etas, zeta_eta=2, witness_exprs=[(n_before + 1, b_poly, a_poly)])


def _rf_residue_at_zero(base: BaseField, rf: RationalFunction) -> Scalar:
    """Value of a K0(t) element at t = 0; requires order >= 0."""
    if rf.is_zero:
        return base.zero
    ord_num = min(e[0] for e, _ in rf.num.terms)
    ord_den = min(e[0] for e, _ in rf.den.terms)
    if ord_num < ord_den:
        raise NotInValuationRingError("element has negative order at t = 0")
    if ord_num > ord_den:
        return base.zero
    cn = next(c for e, c in rf.num.terms if e[0] == ord_num)
    cd = next(c for e, c in rf.den.terms if e[0] == ord_den)
    return base.div(cn, cd)


def _materialize_rows(base: BaseField, n_total: int, rows, nc: int) -> list[SparsePoly]:
    """Turn tagged row specs into polynomials over (X-vars | c-vars)."""
    out = []
    zero_e = (0,) * n_total

    def onehot(j, k=1):
        e = [0] * n_total
        e[j] = k
        return tuple(e)

    for row in rows:
        b = _RowBuilder(base, 0, n_total)
        kind = row[0]
        if kind == "affine1":
            _, j, ref = row
            b.add(onehot(j), None)
            b.add(zero_e, ref, -1)
        elif kind == "minpoly":
            _, j, refs, k = row
            b.add(onehot(j, k), None)
            for i, ref in enumerate(refs):
                b.add(onehot(j, i) if i else zero_e, ref)
        elif kind == "invert":
            _, j, j2 = row
            e = [0] * n_total
            e[j] = 1
            e[j2] = 1
            b.add(tuple(e), None)
            b.add(zero_e, None, -1)
        elif kind == "affine3":
            _, jz, jw, ref_b, ref_a = row
            b.add(onehot(jz), None)
            b.add(onehot(jw), ref_b, -1)
            if ref_a is not None:
                b.add(zero_e, ref_a, -1)
        else:  # pragma: no cover
            raise ValueError(f"unknown row kind {kind!r}")
        out.append(b.materialize(nc))
    return out


# ---------------------------------------------------------------------------
# Residue roots of the reduced minimal polynomial

_FP_ENUMERATION_LIMIT = 4096
_DIVISOR_LIMIT = 10**12


def _synthetic_div(base: BaseField, coeffs: list, r) -> list:
    """coeffs / (X - r); coeffs indexed by degree, remainder must vanish."""
    q = [base.zero] * (len(coeffs) - 1)
    acc = base.zero
    for k in range(len(coeffs) - 1, 0, -1):
        acc = base.add(coeffs[k], base.mul(r, acc))
        q[k - 1] = acc
    rem = base.add(coeffs[0], base.mul(r, acc))
    if rem != 0:
        raise PreconditionError("claimed residue root does not divide the reduction")
    return q


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def _find_one_root(base: BaseField, coeffs: list) -> Scalar | None:
    deg = len(coeffs) - 1
    if deg == 1:
        return base.div(base.neg(coeffs[0]), coeffs[1])
    if base.is_rationals:
        shift = 0
        while coeffs[shift] == 0:
            shift += 1
        if shift:
            return Fraction(0)
        from math import lcm

        den = lcm(*[Fraction(c).denominator for c in coeffs])
        ints = [int(Fraction(c) * den) for c in coeffs]
        lead, const = ints[-1], ints[0]
        if abs(lead) > _DIVISOR_LIMIT or abs(const) > _DIVISOR_LIMIT:
            return None
        for p in _divisors(const):
            for q in _divisors(lead):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    acc = Fraction(0)
                    for c in reversed(coeffs):
                        acc = acc * cand + Fraction(c)
                    if acc == 0:
                        return cand
        return None
    if base.characteristic <= _FP_ENUMERATION_LIMIT:
        for cand in range(base.characteristic):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * cand + c) % base.characteristic
            if acc == 0:
                return cand
    return None


def _conjugate_residue_roots(base: BaseField, mbar: list, r0, provided) -> list:
    """Roots of mbar other than r0, found by repeated deflation.

    `provided`, when given, must list the remaining roots (with
    multiplicity); otherwise roots are searched by degree-1 formulas,
    rational-root candidates over Q, or enumeration over small prime
    fields.  Failure to split is reported as a precondition, with a hint
    to pass the conjugate residues explicitly.
    """
    rest = _synthetic_div(base, mbar, base.coerce(r0))
    roots = []
    if provided is not None:
        for r in provided:
            r = base.coerce(r)
            rest = _synthetic_div(base, rest, r)
            roots.append(r)
        if len(rest) != 1:
            raise PreconditionError(
                "conjugate_residues does not account for every root of the reduction"
            )
        return roots
    while len(rest) > 1:
        r = _find_one_root(base, rest)
        if r is None:
            raise PreconditionError(
                "could not split the reduced minimal polynomial over the residue "
                "field; pass conjugate_residues explicitly"
            )
        r = base.coerce(r)
        rest = _synthetic_div(base, rest, r)
        roots.append(r)
    return roots


# ---------------------------------------------------------------------------
# Presentations and the public constructors


@dataclass(frozen=True)
class DiscretePresentation:
    """K0(t) or K0(t, z) with z given by a monic minimal polynomial and a residue."""

    base: BaseField
    uniformizer: str = "t"
    gen_name: str = "z"
    min_poly: SparsePoly | None = None
    residue: Scalar = 0
    conjugate_residues: tuple | None = None

    def __post_init__(self):
        if self.min_poly is None:
            return
        m = self.min_poly
        if m.nvars != 2 or m.base != self.base:
            raise PreconditionError("min_poly must be a polynomial in (t, X) over the base field")
        if m.is_zero or m.degree_in(1) < 1:
            raise PreconditionError("min_poly must involve X")
        if self.uniformizer == self.gen_name:
            raise PreconditionError("generator names must be distinct")

    @property
    def ambient_names(self) -> tuple[str, ...]:
        if self.min_poly is None:
            return (self.uniformizer,)
        return (self.uniformizer, self.gen_name)


def _monic_min_poly(m: SparsePoly) -> SparsePoly:
    """Scale so the X^D coefficient is 1; it must be a nonzero constant."""
    base = m.base
    d = m.degree_in(1)
    lead_terms = [(e, c) for e, c in m.terms if e[1] == d]
    if len(lead_terms) != 1 or lead_terms[0][0][0] != 0:
        raise PreconditionError(
            "the X-leading coefficient of min_poly must be a nonzero constant"
        )
    c = lead_terms[0][1]
    if c == base.one:
        return m
    return m.scale(base.inv(c))


def realize_presentation(
    pres: DiscretePresentation, precision: int = DEFAULT_PRECISION
) -> tuple[DiscreteSeriesPlace, list[TruncatedSeries]]:
    """The series place and the full list of conjugate root series (main first)."""
    base = pres.base
    if pres.min_poly is None:
        place = DiscreteSeriesPlace(base, pres.uniformizer, (), (), precision)
        return place, []
    m = _monic_min_poly(pres.min_poly)
    z = hensel_lift_root(m, pres.residue, precision)
    mbar = [base.zero] * (m.degree_in(1) + 1)
    for e, c in m.terms:
        if e[0] == 0:
            mbar[e[1]] = c
    others = _conjugate_residue_roots(base, mbar, pres.residue, pres.conjugate_residues)
    conj = [z] + [hensel_lift_root(m, r, precision) for r in others]
    place = DiscreteSeriesPlace(base, pres.uniformizer, (pres.gen_name,), (z,), precision)
    return place, conj


def _relative_system(pres: DiscretePresentation, zetas, precision: int) -> TriangularSystem:
    """Relative certificate over K0(t) for the requested elements of K0(t, z).

    Each distinct element, and z itself, gets one block of rows; the
    blocks share one coefficient pool, whose entries become the system's
    coefficient table, and the block for z carries the witness for z.
    """
    base = pres.base
    place, conj = realize_presentation(pres, precision)
    ctx = place.make_context()
    ring = _QuotientRing(_monic_min_poly(pres.min_poly), place.ambient_names)
    requested = [_coerce_ambient(base, 2, f) for f in zetas]

    unique = list(dict.fromkeys(requested))
    zvar = RationalFunction.variable(base, 2, 1)
    if zvar not in unique:
        unique.append(zvar)

    pool = _CoeffPool(base)
    blocks = []
    n_total = 0
    for f in unique:
        blk = _zeta_block(pool, ring, ctx, conj, f, n_total)
        blocks.append(blk)
        n_total += len(blk.rows)

    nc = len(pool.entries)
    rows = [r for blk in blocks for r in blk.rows]
    fs = _materialize_rows(base, n_total, rows, nc)
    etas = [e for blk in blocks for e in blk.etas]

    eta_offset = []
    at = 0
    for blk in blocks:
        eta_offset.append(at + blk.zeta_eta)
        at += len(blk.etas)
    zeta_indices = tuple(eta_offset[unique.index(f)] for f in requested)

    # only the block for z itself reconstructs the generator, as
    # b*X_winv + a; the other blocks' affine rows reconstruct their own
    # element.  Both references are already in the pool from that row.
    witnesses = []
    for j_winv, b_poly, a_poly in blocks[unique.index(zvar)].witness_exprs:
        wb = _RowBuilder(base, 0, n_total)
        wb.add(_onehot(n_total, j_winv), pool.ref(RationalFunction.from_poly(b_poly)))
        if not a_poly.is_zero:
            wb.add((0,) * n_total, pool.ref(RationalFunction.from_poly(a_poly)))
        witnesses.append((pres.gen_name, RationalFunction.from_poly(wb.materialize(nc))))

    return TriangularSystem(
        place=place,
        tvars=(),
        etas=tuple(etas),
        fs=tuple(fs),
        coeff_field_names=(pres.uniformizer,),
        coeff_table=tuple(pool.entries),
        zeta_indices=zeta_indices,
        witnesses=tuple(witnesses),
    )


def uniformize_completion_algebraic(
    min_poly: SparsePoly,
    residue,
    precision: int = DEFAULT_PRECISION,
    *,
    uniformizer: str = "t",
    gen_name: str = "z",
    conjugate_residues=None,
) -> TriangularSystem:
    """Relative certificate over K0(t) for the extension by one algebraic series.

    The generator z is realized by Hensel lifting from the given residue;
    the system's coefficient field is K0(t), recorded through the
    coefficient table.
    """
    pres = DiscretePresentation(
        base=min_poly.base,
        uniformizer=uniformizer,
        gen_name=gen_name,
        min_poly=min_poly,
        residue=min_poly.base.coerce(residue),
        conjugate_residues=conjugate_residues,
    )
    return _relative_system(pres, [RationalFunction.variable(pres.base, 2, 1)], precision)


def uniformize_immediate_simple(
    z: TruncatedSeries,
    zetas,
    *,
    uniformizer: str = "t",
    gen_name: str = "z",
    precision: int | None = None,
) -> TriangularSystem:
    """Certificate over K0(t) for K0(t, z) with z a series limit.

    A separating truncation a of z is found first; with b the exact
    leading monomial of z - a, every requested element g(z)/h(z) rewrites
    as a ratio of units in ztilde = (z - a)/b, giving one row per element
    whose X-partial is a unit.  T consists of ztilde alone.
    """
    base = z.base
    if precision is None:
        precision = z.precision
    place = DiscreteSeriesPlace(base, uniformizer, (gen_name,), (z,), precision)
    zetas = [_coerce_ambient(base, 2, f) for f in zetas]
    polys = []
    for f in zetas:
        if not f.num.is_zero:
            polys.append(f.num)
        polys.append(f.den)
    witness = kaplansky_normalize(polys, z)
    a_poly = witness.a
    b_poly = _monomial_poly(base, witness.b_coeff, witness.b_exp)

    n = len(zetas)
    pool = _CoeffPool(base)
    rows = []
    for j, f in enumerate(zetas):
        if f.num.is_zero:
            rows.append([((0,) + _onehot(n, j), None, 1)])
            continue
        gam_g = _gamma_table(f.num, a_poly, b_poly)
        gam_h = _gamma_table(f.den, a_poly, b_poly)
        m_h, c_h = _min_term(gam_h)
        m_g, c_g = _min_term(gam_g)
        if m_g < m_h:
            raise NotInValuationRingError(
                f"element {j + 1} lies outside the valuation ring"
            )
        n_h = _monomial_poly(base, c_h, m_h)
        terms = []
        for i, gi in enumerate(gam_h):
            if gi.is_zero:
                continue
            ref = pool.ref(RationalFunction.from_poly(gi) / RationalFunction.from_poly(n_h))
            terms.append(((i,) + _onehot(n, j), ref, 1))
        for i, gi in enumerate(gam_g):
            if gi.is_zero:
                continue
            ref = pool.ref(RationalFunction.from_poly(gi) / RationalFunction.from_poly(n_h))
            terms.append(((i,) + (0,) * n, ref, -1))
        rows.append(terms)

    # witness references can extend the pool, so take them before sizing rows
    wb = _RowBuilder(base, 1, n)
    wb.add((1,) + (0,) * n, pool.ref(RationalFunction.from_poly(b_poly)))
    if not a_poly.is_zero:
        wb.add((0,) * (1 + n), pool.ref(RationalFunction.from_poly(a_poly)))

    nc = len(pool.entries)
    fs = []
    for terms in rows:
        b = _RowBuilder(base, 1, n)
        for txexp, ref, sgn in terms:
            b.add(txexp, ref, sgn)
        fs.append(b.materialize(nc))

    a_amb = _ambient_rf_from_t_poly(base, 2, a_poly)
    b_amb = _ambient_rf_from_t_poly(base, 2, b_poly)
    zvar = RationalFunction.variable(base, 2, 1)
    ztilde = (zvar - a_amb) / b_amb

    z_witness = RationalFunction.from_poly(wb.materialize(nc))

    return TriangularSystem(
        place=place,
        tvars=(ztilde,),
        etas=tuple(zetas),
        fs=tuple(fs),
        coeff_field_names=(uniformizer,),
        coeff_table=tuple(pool.entries),
        zeta_indices=tuple(range(n)),
        witnesses=((gen_name, z_witness),),
    )


def _coerce_ambient(base: BaseField, nvars: int, f) -> RationalFunction:
    if isinstance(f, RationalFunction):
        if f.nvars != nvars or f.base != base:
            raise PreconditionError("element does not live in the ambient field")
        return f
    if isinstance(f, SparsePoly):
        return RationalFunction.from_poly(f)
    raise PreconditionError(f"cannot interpret {f!r} as an ambient element")


def _onehot(n: int, j: int, k: int = 1) -> tuple[int, ...]:
    e = [0] * n
    e[j] = k
    return tuple(e)


def _gamma_table(g: SparsePoly, a_poly: SparsePoly, b_poly: SparsePoly) -> list[SparsePoly]:
    """gamma_i = g^[i](a) * b^i, exact polynomials in t."""
    deg = g.degree_in(1) if not g.is_zero else -1
    out = []
    for i in range(deg + 1):
        gi = _eval_at_poly(hasse_derivative(g, i, var=1), a_poly)
        out.append(gi * (b_poly ** i))
    return out


def _min_term(gam: list[SparsePoly]) -> tuple[int, Scalar]:
    """Order and coefficient of the lowest t-term across the table; unique by separation."""
    best = None
    for gi in gam:
        if gi.is_zero:
            continue
        e = min(e[0] for e, _ in gi.terms)
        c = next(c for ee, c in gi.terms if ee[0] == e)
        if best is None or e < best[0]:
            best = (e, c)
    if best is None:
        raise PreconditionError("element vanishes identically")
    return best


def uniformize_discrete_rational(
    pres: DiscretePresentation,
    zetas,
    precision: int = DEFAULT_PRECISION,
    max_steps: int | None = None,
) -> TriangularSystem:
    """Ground certificate for requested elements of K0(t) or K0(t, z).

    Splits each element into a short relative block over K0(t), collects
    every coefficient-field element those blocks use, certifies the
    coefficients with the monomial machinery over t, and composes the two
    layers.  The result's rows have coefficients in K0 alone.
    """
    base = pres.base
    inner_order = GroupOrder(((SurdScalar.rational(1),),))
    inner_place = MonomialPlace(base, inner_order, tau=0, x_names=(pres.uniformizer,))

    if pres.min_poly is None:
        ground = [_coerce_ambient(base, 1, f) for f in zetas]
        return uniformize_abhyankar(inner_place, ground, max_steps=max_steps)

    outer = _relative_system(pres, zetas, precision)
    for entry in outer.coeff_table:
        if not _rf_in_ring(entry):
            raise PreconditionError(
                "a coefficient-field element of the relative system lies outside "
                "the valuation ring"
            )
    inner = uniformize_abhyankar(inner_place, list(outer.coeff_table), max_steps=max_steps)
    return compose(outer, inner)


# ---------------------------------------------------------------------------
# Element queries used by the command-line front end


def series_element_value(place: DiscreteSeriesPlace, f: RationalFunction) -> int:
    from .errors import ValueOfZeroError

    if _coerce_ambient(place.base, place.nvars, f).is_zero:
        raise ValueOfZeroError("the zero element has no value")
    s = place.element_series(f)
    return s.known_order()


def series_element_residue(place: DiscreteSeriesPlace, f: RationalFunction) -> Scalar:
    s = place.element_series(f)
    return s.residue()

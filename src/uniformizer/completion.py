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

A row is built as a list of terms (exps, c, scalar) before its width is
known.  exps maps a variable index to an exponent; c is the index of a
pooled coefficient-field element, which becomes one c-variable after the
leading variables, or None; scalar is a canonical element of K0, into
which a constant coefficient is folded when the term is made.  Once every
block has registered its coefficients, the pool turns each list into a
polynomial over (leading variables | c-variables).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from . import dense
from .errors import (
    InsufficientPrecisionError,
    NotInValuationRingError,
    PreconditionError,
)
from .fields import BaseField, Scalar
from .polyfield import (
    RationalFunction,
    SparsePoly,
    _from_ints,
    _ints,
    hasse_derivative,
    ratfun_str,
)
from .series import (
    TruncatedSeries,
    _convolve,
    equal_to_precision,
    eval_poly_at_series,
    eval_ratfun_at_series,
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
    """Evaluation of ambient rational functions into truncated series.

    The context keeps one power table (see ``series``) for its lifetime:
    ``ambient``, ``coeff`` and ``eval_poly`` all evaluate through it, so a
    power a^k of an argument, and its integer row, is built once per
    context rather than once per call.  An element whose denominator is a
    constant c is its numerator scaled by 1/c, with no series inverse.
    """

    def __init__(self, place: DiscreteSeriesPlace, precision: int | None = None):
        if precision is None:
            precision = place.precision
        if precision < 1:
            raise PreconditionError("precision must be at least 1")
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
        self.powers = {}  # the power table of every argument evaluated so far

    def ambient(self, rf: RationalFunction) -> TruncatedSeries:
        if rf.nvars != self.place.nvars or rf.base != self.place.base:
            raise PreconditionError("element does not live in the ambient field")
        return eval_ratfun_at_series(rf, self.args, self.precision, self.powers)

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
        return eval_ratfun_at_series(rf, picked, self.precision, self.powers)

    def generator(self, i: int) -> TruncatedSeries:
        return self.args[i]

    def eval_poly(self, f: SparsePoly, args) -> TruncatedSeries:
        return eval_poly_at_series(f, args, self.precision, self.powers)

    def eval_ratfun(self, f: RationalFunction, args) -> TruncatedSeries:
        try:
            return eval_ratfun_at_series(f, args, self.precision, self.powers)
        except InsufficientPrecisionError:
            # its one way to fail: a denominator zero to precision has no inverse
            raise ZeroDivisionError("denominator vanishes to precision") from None

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


_NOT_SIMPLE = "x0 is not a simple root of the reduction; the root does not lift"


def _reduction(g: SparsePoly) -> tuple[list, int]:
    """g(0, X) for g in (t, X), as a row over one denominator."""
    low = {e[1]: c for e, c in g.terms if e[0] == 0}
    return g.base.int_row([low.get(j, 0) for j in range(max(low, default=-1) + 1)])


def _rows_in_x(f: SparsePoly, n: int) -> tuple[list, int]:
    """f in (t, X) as its coefficient rows in t below t^n, lowest power of X
    first, over one common denominator."""
    terms, den = _ints(f)
    rows = [[0] * n for _ in range(f.degree_in(1) + 1)]
    for (i, j), c in terms:
        if i < n:
            rows[j][i] = c
    return [dense.trim(row) for row in rows], den


def _horner(base: BaseField, rows: list, den: int, z: TruncatedSeries, n: int) -> TruncatedSeries:
    """f(t, z) below t^n, by Horner's rule in X, for f given by its rows and
    denominator from ``_rows_in_x`` and a series z of order >= 0 known to at
    least n.

    With z = Z/q over Q, the homogeneous form sum_j F_j Z^j q^(deg - j)
    keeps every step on integers; the result is that over den * q^deg.
    """
    p = base.characteristic
    nums, q = base.int_row(z.coeffs)
    Z = [0] * z.offset + nums
    acc, qk = [], 1
    for row in reversed(rows):
        acc = dense.add(_convolve(acc, Z, n), dense.scale(row[:n], qk, p), 0)
        if p:
            acc = dense.trim([c % p for c in acc])
        qk *= q
    return TruncatedSeries._trimmed(base, 0, base.settle_row(acc, den * q ** (len(rows) - 1)), n)


def hensel_lift_root(f: SparsePoly, x0, precision: int) -> TruncatedSeries:
    """Root series of f(t, X) starting from a simple residue root x0.

    Requires f(0, x0) = 0 and (df/dX)(0, x0) != 0; Newton steps double the
    correct precision each round, and remain valid in characteristic p
    because only the first derivative is involved.  The inverse of f'(z)
    is carried along as a second Newton iterate, one doubling per round,
    instead of being recomputed from scratch.  f and f' are read once as
    coefficient rows in t, one per power of X, and each round evaluates
    them at z by Horner's rule in X (``_horner``), so no power of z is
    formed.
    """
    if f.nvars != 2:
        raise PreconditionError("expected a polynomial in (t, X)")
    if precision < 1:
        raise PreconditionError("precision must be at least 1")
    base = f.base
    x0 = base.coerce(x0)
    if f.evaluate((0, x0)) != 0:
        raise PreconditionError("x0 is not a root of the reduction")
    dfdx = hasse_derivative(f, 1, var=1)
    d0 = dfdx.evaluate((0, x0))
    if d0 == 0:
        raise PreconditionError(_NOT_SIMPLE)
    f_rows, d_rows = _rows_in_x(f, precision), _rows_in_x(dfdx, precision)
    z = TruncatedSeries.constant(base, x0, 1)
    w = TruncatedSeries.constant(base, base.inv(d0), 1)
    two = TruncatedSeries.constant(base, 2, precision)
    p = 1
    while p < precision:
        p2 = min(2 * p, precision)
        # the known coefficients form a polynomial approximant; Newton
        # corrects everything beyond the old precision automatically.
        # f(zt) vanishes below p, so w = 1/f'(z) below p settles z below p2
        zt = TruncatedSeries(base, z.offset, z.coeffs, p2)
        z = zt - _horner(base, *f_rows, zt, p2) * w
        if p2 < precision:
            # the second Newton iterate, w <- w (2 - f'(z) w): 1/f'(z) below p2
            wt = TruncatedSeries(base, w.offset, w.coeffs, p2)
            w = wt * (two - _horner(base, *d_rows, z, p2) * wt)
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

    @property
    def b(self) -> SparsePoly:
        """The monomial b_coeff * t^b_exp."""
        return SparsePoly(self.a.base, 1, (((self.b_exp,), self.b_coeff),))


def _split_series(z: TruncatedSeries, below: int) -> tuple[SparsePoly, SparsePoly]:
    """(a, b): the terms of z below t^below, and the exact leading monomial of
    z - a.  z has order >= 0 and below is at most its precision."""
    coeffs = z.coeffs
    cut = min(len(coeffs), max(0, below - z.offset))
    a = SparsePoly._canon(z.base, 1, {(z.offset + i,): c for i, c in enumerate(coeffs[:cut])})
    k = next((i for i in range(cut, len(coeffs)) if coeffs[i]), None)
    if k is None:
        raise InsufficientPrecisionError(
            "series vanishes to precision; its leading monomial is not determined",
            needed=z.precision + 1,
        )
    return a, SparsePoly(z.base, 1, (((z.offset + k,), coeffs[k]),))


def _eval_at_poly(f: SparsePoly, a: SparsePoly) -> SparsePoly:
    """f(t, a(t)) as an exact polynomial in t."""
    acc = SparsePoly.zero(f.base, 1)
    for (i, j), c in f.terms:
        acc = acc + SparsePoly._canon(f.base, 1, {(i,): c}) * a ** j
    return acc


def _gamma_table(g: SparsePoly, a: SparsePoly, b: SparsePoly) -> list[SparsePoly]:
    """gamma_i = g^[i](a) * b^i, exact polynomials in t."""
    deg = g.degree_in(1) if not g.is_zero else -1
    return [_eval_at_poly(hasse_derivative(g, i, var=1), a) * b ** i for i in range(deg + 1)]


def _value_table(f: SparsePoly, a: SparsePoly, b: SparsePoly) -> tuple[tuple[int, int], ...]:
    """(i, v(f^[i](a) b^i)) for every i with f^[i](a) nonzero; exact."""
    if f.nvars != 2:
        raise PreconditionError("expected a polynomial in (t, X)")
    # the lowest term of a polynomial in t alone comes last
    return tuple(
        (i, g.terms[-1][0][0]) for i, g in enumerate(_gamma_table(f, a, b)) if not g.is_zero
    )


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
        a, b = _split_series(z, below)
        tables = tuple(_value_table(f, a, b) for f in fs)
        if all(len({v for _, v in tab}) == len(tab) for tab in tables):
            (b_exp,), b_coeff = b.terms[0]
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
        tab = _value_table(f, witness.a, witness.b)
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
# Elements are vectors of dense K0[t] rows (see ``dense``).  Linear algebra
# is Bareiss elimination (E. H. Bareiss, 1968): every entry after a step is
# a minor of the input rows, so dividing by the previous pivot is exact in
# K0[t] and needs no gcd.  The only gcds are the ones RationalFunction.make
# takes, once per output coefficient of a minimal polynomial.


def _unit(n: int, j: int) -> list:
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
        self.L = _ints(m)[1]
        self.neg_m = [dense.scale(c, -1, self.p) for c in self._split(m)[0][:-1]]

    def _split(self, f: SparsePoly) -> tuple[list, int]:
        """(P, s) with f = P(Y)/s: P over Y with K0[t] entries, s an integer."""
        if f.is_zero:
            return [], 1
        n = f.degree_in(1)
        P = [[0] * (f.degree_in(0) + 1) for _ in range(n + 1)]
        for (i, j), c in f.terms:
            P[j][i] = c * self.L ** (n - j)
        flat, s = self.base.int_row([c for row in P for c in row])
        w = len(P[0])
        return [dense.trim(flat[j * w : (j + 1) * w]) for j in range(n + 1)], s * self.L**n

    def _reduce(self, P: list) -> list:
        """P modulo m, as a vector of length dim."""
        P, dim, p = list(P), self.dim, self.p
        for k in range(len(P) - 1, dim - 1, -1):
            if P[k]:
                for i, c in enumerate(self.neg_m):
                    P[k - dim + i] = dense.add(P[k - dim + i], dense.mul(P[k], c, p), p)
        return P[:dim] + [[]] * (dim - len(P))

    def _mul(self, A: list, B: list) -> list:
        p = self.p
        out = [[] for _ in range(len(A) + len(B) - 1)]
        for i, a in enumerate(A):
            if a:
                for j, b in enumerate(B):
                    out[i + j] = dense.add(out[i + j], dense.mul(a, b, p), p)
        return self._reduce(out)

    def _eliminate(self, pivots: list, row: list):
        """One more row through the Bareiss steps of the pivot rows.

        Returns the row's tail (past the first dim columns) when its head
        reduces to zero; otherwise records the row as a pivot and returns None.
        """
        p, prev = self.p, [1]
        for col, prow in pivots:
            piv, neg_c = prow[col], dense.scale(row[col], -1, p)
            row = [
                dense.divexact(dense.add(dense.mul(piv, x, p), dense.mul(neg_c, y, p), p), prev, p)
                for x, y in zip(row, prow)
            ]
            prev = piv
        col = next((j for j in range(self.dim) if row[j]), None)
        if col is None:
            return row[self.dim:]
        pivots.append((col, row))
        return None

    def _poly(self, c: list) -> SparsePoly:
        return _from_ints(self.base, 1, {(i,): v for i, v in enumerate(c) if v})

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
            if self._eliminate(pivots, col + _unit(dim + 1, j)) is not None:
                raise PreconditionError(self._bad_denominator(f, "is a zero divisor"))
            col = self._reduce([[]] + col)
        e = self._eliminate(pivots, _unit(dim, 0) + _unit(dim + 1, dim))
        # f = A/d over the common denominator d
        A = self._mul(self._reduce(num), [dense.scale(c, -den_s, p) for c in e[:dim]])
        d = dense.scale(e[dim], num_s, p)
        # the first dependency sum_i e_i A^i = 0 among the powers of A gives
        # sum_i e_i d^i f^i = 0
        pivots, power = [], _unit(dim, 0)
        for k in range(dim + 1):
            e = self._eliminate(pivots, power + _unit(dim + 1, k))
            if e is not None:
                break
            power = self._mul(power, A)
        else:  # pragma: no cover - dimension bound
            raise PreconditionError("no dependency found below the ring dimension")
        out, d_pow = [RationalFunction.const(self.base, 1, 1)], d
        for i in range(k - 1, -1, -1):
            den_i = self._poly(dense.mul(e[k], d_pow, p))
            out.append(RationalFunction.make(self._poly(e[i]), den_i))
            d_pow = dense.mul(d_pow, d, p)
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

    Non-constant elements of K0(t) become c-variables, numbered in order of
    first use; constants are folded into the scalar of the term using them.
    """

    def __init__(self, base: BaseField):
        self.base = base
        self.entries: dict[RationalFunction, int] = {}

    def term(self, exps: dict, rf: RationalFunction, scalar: Scalar) -> tuple:
        """The row term exps * rf * scalar."""
        if rf.is_constant:
            return exps, None, self.base.mul(scalar, rf.constant_value())
        return exps, self.entries.setdefault(rf, len(self.entries)), scalar

    def poly(self, terms, nlead: int) -> SparsePoly:
        """A row over (nlead leading variables | the c-variables); every
        entry must be registered before the first call."""
        width = nlead + len(self.entries)
        acc = {}
        for exps, c, scalar in terms:
            e = [0] * width
            for v, k in exps.items():
                e[v] = k
            if c is not None:
                e[nlead + c] = 1
            acc[tuple(e)] = scalar
        return SparsePoly._canon(self.base, width, acc)


def _residue_at_zero(rf: RationalFunction) -> Scalar | None:
    """Value of a K0(t) element at t = 0, or None when its order there is negative."""
    base = rf.base
    if rf.is_zero:
        return base.zero
    # the lowest term of a polynomial in t alone comes last
    (ord_num,), cn = rf.num.terms[-1]
    (ord_den,), cd = rf.den.terms[-1]
    if ord_num < ord_den:
        return None
    return base.div(cn, cd) if ord_num == ord_den else base.zero


def _ambient_rf_from_t_poly(nvars: int, p: SparsePoly) -> RationalFunction:
    """Lift a polynomial in t alone into the ambient (t, gens) ring."""
    return RationalFunction.from_poly(p.map_vars([0], nvars))


@dataclass
class _Block:
    rows: list  # term lists
    etas: list
    zeta_at: int  # index of the requested element among all etas
    witness: list  # terms of b*X_winv + a, the element again; empty in K0(t)


def _zeta_block(
    pool: _CoeffPool,
    ring: _QuotientRing,
    ctx: SeriesContext,
    conj_series: list[TruncatedSeries],
    zeta: RationalFunction,
    n_before: int,
) -> _Block:
    """Rows for one valuation-ring element of K0(t, z), on the variables
    from X_(n_before) on.

    Elements of K0(t) itself give a single row X - c.  Anything of degree
    k >= 2 over K0(t) gives three rows: the minimal polynomial of
    w = b/(zeta - a) (whose reduction is X^k - X^(k-1)), the inversion row
    X_w * X_winv - 1, and the affine row X_zeta - b*X_winv - a.
    """
    base = pool.base
    one, minus = base.one, base.neg(base.one)
    j = n_before

    h = ring.min_poly(zeta)
    k = len(h) - 1

    if k == 1:
        # zeta already lies in K0(t): one affine row X - c
        c_rf = -h[0]
        if _residue_at_zero(c_rf) is None:
            raise NotInValuationRingError(
                f"element {ratfun_str(zeta, ctx.place.ambient_names)} lies outside the valuation ring"
            )
        row = [({j: 1}, None, one), pool.term({}, c_rf, minus)]
        return _Block(rows=[row], etas=[zeta], zeta_at=j, witness=[])

    # realize zeta at z and its conjugates, conj_series[0] being ctx's own z,
    # and cluster the values; the number of distinct ones must be k
    reps: list[TruncatedSeries] = []
    for czs in conj_series:
        v = eval_ratfun_at_series(zeta, [ctx.args[0], czs], ctx.precision, ctx.powers)
        if not any(equal_to_precision(v, r) for r in reps):
            reps.append(v)
    if len(reps) != k:
        raise InsufficientPrecisionError(
            f"found {len(reps)} distinct conjugate expansions but the minimal "
            f"polynomial has degree {k}; raise the precision",
            needed=2 * ctx.precision,
        )
    zs = reps[0]  # zeta's own value
    o = zs.order()
    if o is not None and o < 0:
        raise NotInValuationRingError(
            f"element {ratfun_str(zeta, ctx.place.ambient_names)} lies outside the valuation ring"
        )
    # truncating past every order of zs - r, r another conjugate value,
    # separates zeta from its conjugates
    a, b = _split_series(zs, 1 + max(0, *((zs - r).known_order() for r in reps[1:])))

    rest = zeta - _ambient_rf_from_t_poly(ctx.place.nvars, a)
    b_amb = _ambient_rf_from_t_poly(ctx.place.nvars, b)
    w_amb, winv_amb = b_amb / rest, rest / b_amb

    hw = _w_min_poly(ring, h, a, b, w_amb)
    # sanity: each coefficient must lie in the valuation ring and reduce to
    # the coefficients of X^k - X^(k-1)
    for c, want in zip(hw, [base.zero] * (k - 1) + [minus, one]):
        res = _residue_at_zero(c)
        if res is None:
            raise PreconditionError(
                "minimal polynomial of w has a coefficient outside the valuation ring"
            )
        if res != want:
            raise InsufficientPrecisionError(
                "minimal polynomial of w does not reduce to X^k - X^(k-1); "
                "the truncation depth or precision is too small",
                needed=2 * ctx.precision,
            )

    a_rf, b_rf = RationalFunction.from_poly(a), RationalFunction.from_poly(b)
    minpoly = [({j: k}, None, one)] + [pool.term({j: i}, c, one) for i, c in enumerate(hw[:-1])]
    invert = [({j: 1, j + 1: 1}, None, one), ({}, None, minus)]
    affine = [({j + 2: 1}, None, one), pool.term({j + 1: 1}, b_rf, minus), pool.term({}, a_rf, minus)]
    witness = [pool.term({j + 1: 1}, b_rf, one), pool.term({}, a_rf, one)]
    return _Block(
        rows=[minpoly, invert, affine], etas=[w_amb, winv_amb, zeta], zeta_at=j + 2, witness=witness
    )


def _t_row(f: SparsePoly) -> tuple[list, int]:
    """A polynomial in t alone as a dense row over one denominator."""
    terms, den = _ints(f)
    row = [0] * (terms[0][0][0] + 1 if terms else 0)
    for (i,), c in terms:
        row[i] = c
    return row, den


def _w_min_poly(ring: _QuotientRing, h: list, a: SparsePoly, b: SparsePoly, w) -> list:
    """The minimal polynomial of w = b/(zeta - a) over K0(t), lowest
    coefficient first, from h, that of zeta.

    zeta = a + b/w, so w is a root of W^k h(a + b/W), whose coefficient of
    W^(k-s) is b^s h^[s](a), with h^[s] the s-th Hasse derivative; its
    leading one is h(a).  Divided by h(a) it is monic of degree
    k = [K0(t)(zeta) : K0(t)] = [K0(t)(w) : K0(t)], so it is the minimal
    polynomial.  The h^[s](a) are the coefficients of h(a + Y), one Taylor
    shift on K0[t] rows over a common denominator L of the h_i.  Over Q,
    a = A/u, and the shift of sum_i L h_i u^(k-i) Y^i by A stays integral:
    its coefficient of Y^s is S_s = L u^(k-s) h^[s](a).  Each coefficient
    is normalised once, by ``RationalFunction.make``.

    h(a) = 0 makes zeta - a a zero divisor of a split modulus, and then
    ``ring.min_poly(w)`` raises, naming w.  The blocks never get there: a
    separates zeta's value from every other root of h, and differs from it
    as b does.
    """
    p, k = ring.p, len(h) - 1
    nums = [_t_row(c.num)[0] for c in h]
    dens = [_t_row(c.den)[0] for c in h]
    L = [1]
    for d in dens:
        if d != L:
            L = dense.mul(L, dense.divexact(d, dense.gcd(L, d, p), p), p)
    A, u = _t_row(a)
    S = [
        dense.scale(dense.mul(n, dense.divexact(L, d, p), p), u ** (k - i), p)
        for i, (n, d) in enumerate(zip(nums, dens))
    ]
    for s in range(k):
        for i in range(k - 1, s - 1, -1):
            S[i] = dense.add(S[i], dense.mul(A, S[i + 1], p), p)
    if not S[0]:
        return ring.min_poly(w)
    # the coefficient of W^(k-s) is (c u)^s t^(e s) S_s / (d^s S_0) for b = (c/d) t^e
    (e,), c = b.terms[0]
    c, d = (c, 1) if p else (c.numerator, c.denominator)
    out = [RationalFunction.make(
        ring._poly([0] * (e * s) + dense.scale(S[s], (c * u) ** s, p)),
        ring._poly(dense.scale(S[0], d ** s, p)),
    ) for s in range(k, 0, -1)]
    return out + [RationalFunction.const(ring.base, 1, 1)]


# ---------------------------------------------------------------------------
# Residue roots of the reduced minimal polynomial

_FP_ENUMERATION_LIMIT = 4096
_DIVISOR_LIMIT = 10**12


def _deflate(row: list, r, p: int) -> list:
    """row / (X - r); over Q row / (qX - x) for r = x/q, so primitive stays primitive."""
    try:
        return dense.divexact(row, [-r % p, 1] if p else [-r.numerator, r.denominator], p)
    except PreconditionError:
        raise PreconditionError("claimed residue root does not divide the reduction") from None


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


def _find_one_root(row: list, p: int) -> Scalar | None:
    """A root in the residue field of a row of degree >= 1, primitive with a
    positive leading coefficient over Q, or None when the search gives up."""
    if len(row) == 2:
        return -row[0] * pow(row[1], -1, p) % p if p else Fraction(-row[0], row[1])
    if p:
        candidates = range(p if p <= _FP_ENUMERATION_LIMIT else 0)
        return next((x for x in candidates if not dense.horner(row, x, p)), None)
    if not row[0]:
        return Fraction(0)
    if abs(row[-1]) > _DIVISOR_LIMIT or abs(row[0]) > _DIVISOR_LIMIT:
        return None
    # x/q with q > 1 not in lowest terms comes after its reduced form, so
    # skipping it still returns the first root in this order
    qs = _divisors(row[-1])
    pairs = ((x, q) for x in _divisors(row[0]) for q in qs if gcd(x, q) == 1)
    found = (Fraction(c, q) for x, q in pairs for c in (x, -x) if not dense.horner(row, c, 0, q))
    return next(found, None)


def _conjugate_residue_roots(base: BaseField, mbar: list, r0, provided) -> list:
    """Roots of the row mbar other than r0, found by repeated deflation;
    over Q, mbar is primitive with a positive leading coefficient.

    `provided`, when given, must list the remaining roots (with
    multiplicity); otherwise roots are searched by degree-1 formulas,
    rational-root candidates over Q, or enumeration over small prime
    fields.  Failure to split is reported as a precondition, with a hint
    to pass the conjugate residues explicitly.
    """
    p = base.p
    rest, roots = _deflate(mbar, base.coerce(r0), p), []
    for r in provided or ():
        roots.append(base.coerce(r))
        rest = _deflate(rest, roots[-1], p)
    if provided is not None and len(rest) != 1:
        raise PreconditionError(
            "conjugate_residues does not account for every root of the reduction"
        )
    while len(rest) > 1:
        r = _find_one_root(rest, p)
        if r is None:
            raise PreconditionError(
                "could not split the reduced minimal polynomial over the residue "
                "field; pass conjugate_residues explicitly"
            )
        rest = _deflate(rest, r, p)
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
) -> tuple[DiscreteSeriesPlace, list]:
    """The series place and the residues of the other conjugates of z.

    Only z is lifted.  Each conjugate residue is checked to be a simple
    root of the reduction, which is all its lift needs, so a presentation
    that realizes here also gives the relative block its conjugates.
    """
    base = pres.base
    if pres.min_poly is None:
        place = DiscreteSeriesPlace(base, pres.uniformizer, (), (), precision)
        return place, []
    m = _monic_min_poly(pres.min_poly)
    z = hensel_lift_root(m, pres.residue, precision)
    # m is monic, so over Q the row of its reduction is primitive
    others = _conjugate_residue_roots(base, _reduction(m)[0], pres.residue, pres.conjugate_residues)
    # z's residue is simple and the reduction splits: a repeated conjugate
    # residue is the only multiple root
    if len(set(others)) != len(others):
        raise PreconditionError(_NOT_SIMPLE)
    place = DiscreteSeriesPlace(base, pres.uniformizer, (pres.gen_name,), (z,), precision)
    return place, others


def _relative_system(pres: DiscretePresentation, zetas, precision: int) -> TriangularSystem:
    """Relative certificate over K0(t) for the requested elements of K0(t, z).

    Each distinct element, and z itself, gets one block of rows; the
    blocks share one coefficient pool, whose entries become the system's
    coefficient table, and the block for z carries the witness for z.
    """
    base = pres.base
    place, others = realize_presentation(pres, precision)
    ctx = place.make_context()
    m = _monic_min_poly(pres.min_poly)
    conj = ctx.args[1:] + [hensel_lift_root(m, r, precision) for r in others]
    ring = _QuotientRing(m, place.ambient_names)
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

    # only the block for z itself reconstructs the generator; the other
    # blocks' witness terms give back their own element
    z_terms = blocks[unique.index(zvar)].witness
    witnesses = ()
    if z_terms:
        witnesses = ((pres.gen_name, RationalFunction.from_poly(pool.poly(z_terms, n_total))),)

    return TriangularSystem(
        place=place,
        tvars=(),
        etas=tuple(e for blk in blocks for e in blk.etas),
        fs=tuple(pool.poly(row, n_total) for blk in blocks for row in blk.rows),
        coeff_field_names=(pres.uniformizer,),
        coeff_table=tuple(pool.entries),
        zeta_indices=tuple(blocks[unique.index(f)].zeta_at for f in requested),
        witnesses=witnesses,
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
    a, b = witness.a, witness.b
    one, minus = base.one, base.neg(base.one)

    # variables (t1 = ztilde | X_1..X_n | c-variables)
    n = len(zetas)
    pool = _CoeffPool(base)
    rows = []
    for j, f in enumerate(zetas, 1):
        if f.num.is_zero:
            rows.append([({j: 1}, None, one)])
            continue
        gam_g = _gamma_table(f.num, a, b)
        gam_h = _gamma_table(f.den, a, b)
        low_h = _min_term(gam_h)
        if _min_term(gam_g)[0] < low_h[0]:
            raise NotInValuationRingError(f"element {j} lies outside the valuation ring")
        n_h = RationalFunction.from_poly(SparsePoly(base, 1, (low_h,)))
        # (h(z) X_j - g(z))/n_h, with h(z) = sum_i gamma_i(h) ztilde^i
        rows.append(
            [pool.term({0: i, j: 1}, RationalFunction.from_poly(gi) / n_h, one)
             for i, gi in enumerate(gam_h) if not gi.is_zero]
            + [pool.term({0: i}, RationalFunction.from_poly(gi) / n_h, minus)
               for i, gi in enumerate(gam_g) if not gi.is_zero]
        )
    # z = b*ztilde + a can extend the pool, so it comes before any row is sized
    z_terms = [
        pool.term({0: 1}, RationalFunction.from_poly(b), one),
        pool.term({}, RationalFunction.from_poly(a), one),
    ]
    fs = [pool.poly(row, 1 + n) for row in rows]

    zvar = RationalFunction.variable(base, 2, 1)
    ztilde = (zvar - _ambient_rf_from_t_poly(2, a)) / _ambient_rf_from_t_poly(2, b)

    return TriangularSystem(
        place=place,
        tvars=(ztilde,),
        etas=tuple(zetas),
        fs=tuple(fs),
        coeff_field_names=(uniformizer,),
        coeff_table=tuple(pool.entries),
        zeta_indices=tuple(range(n)),
        witnesses=((gen_name, RationalFunction.from_poly(pool.poly(z_terms, 1 + n))),),
    )


def _coerce_ambient(base: BaseField, nvars: int, f) -> RationalFunction:
    if isinstance(f, RationalFunction):
        if f.nvars != nvars or f.base != base:
            raise PreconditionError("element does not live in the ambient field")
        return f
    if isinstance(f, SparsePoly):
        return RationalFunction.from_poly(f)
    raise PreconditionError(f"cannot interpret {f!r} as an ambient element")


def _min_term(gam: list[SparsePoly]) -> tuple:
    """The lowest t-term ((order,), coefficient) across the table; unique by separation."""
    lows = [g.terms[-1] for g in gam if not g.is_zero]
    if not lows:
        raise PreconditionError("element vanishes identically")
    return min(lows, key=lambda term: term[0])


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
        if _residue_at_zero(entry) is None:
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

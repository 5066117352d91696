"""The uniformization pipeline that runs through the completion of a
discrete rational place K0(t, z), z given by a monic minimal polynomial
over K0[t] and a residue.  The presentation and its series place live in
``series``; this module is construction only, imported by neither
``series`` nor ``checker``.

The pipeline splits any requested valuation-ring element into a short
relative block over K0(t) (three rows built from a separating truncation
a, the exact leading monomial b of the remainder, and the minimal
polynomial of w = b/(zeta - a), whose reduction is X^k - X^(k-1) in every
characteristic), collects all coefficient-field elements those blocks
use, uniformizes the coefficients over K0(t) with the monomial machinery,
and composes the two layers into one ground system.

A row is built as a list of terms (exps, (index, power) | None, scalar)
before its width is known.  exps maps a variable index to an exponent;
(index, power) raises a pooled coefficient-field element, one c-variable
after the leading variables, to a power: a polynomial in t is one term
per monomial on the single pooled entry t, any other element of K0(t) an
entry of its own.  scalar is a canonical element of K0, into which
constant coefficients fold.  Once every block has registered its
coefficients, the pool turns each list into a polynomial over (leading
variables | c-variables).
"""

from __future__ import annotations

from math import gcd

from . import dense
from .errors import (
    InsufficientPrecisionError,
    NotInValuationRingError,
    PreconditionError,
)
from .fields import BaseField, Frozen, Scalar
from .polyfield import (
    RationalFunction,
    SparsePoly,
    _settled,
    ratfun_str,
)

# hensel_lift_root stays bound here: benchmark/ traces completion.hensel_lift_root
from .series import (
    DEFAULT_PRECISION,
    DiscretePresentation,
    DiscreteSeriesPlace,
    SeriesContext,
    TruncatedSeries,
    _monic_min_poly,
    hensel_lift_root,
    realize_presentation,
)
from .surd import SurdScalar
from .uniformize import TriangularSystem, compose, uniformize_abhyankar
from .valuation import MonomialPlace
from .valuegroup import GroupOrder


# ---------------------------------------------------------------------------
# Separating truncations and the value formula


class ApproximationWitness(Frozen):
    """A truncation a of z and the monomial b with distinct term values.

    For each input polynomial f of ``fs``, gammas holds Kaplansky's table
    gamma_i = f^[i](a) * b^i as a list, and tables lists (i, v(gamma_i))
    over the indices with gamma_i nonzero; all listed values are pairwise
    distinct, which makes  v f(z) = min_i v(f^[i](a) b^i)  exact.  a holds
    the terms of z below t^(v(z) + depth).
    """

    __slots__ = ("fs", "z", "a", "b", "depth", "gammas", "tables")


def _split_series(z: TruncatedSeries, below: int) -> tuple[SparsePoly, SparsePoly]:
    """(a, b): the terms of z below t^below, and the exact leading monomial of
    z - a.  z has order >= 0 and below is at most its precision."""
    row, off = z.row, z.offset
    cut = min(len(row), max(0, below - off))
    a = _settled(z.base, 1, dense.to_ints(row[:cut], off), z.denom)
    k = next((i for i in range(cut, len(row)) if row[i]), None)
    if k is None:
        raise InsufficientPrecisionError(
            "series vanishes to precision; its leading monomial is not determined",
            needed=z.precision + 1,
        )
    return a, _settled(z.base, 1, (((off + k,), row[k]),), z.denom)


def _kaplansky_table(rows: list, D: int, a: SparsePoly, b: SparsePoly) -> list[SparsePoly]:
    """gamma_s = H^[s](a) * b^s, exact polynomials in t, for H = sum_i
    rows[i] X^i / D with K0[t] rows and H^[s] the s-th Hasse derivative in
    X, from one Taylor shift of the rows.  With a = A/u, the shift of
    sum_i rows[i] u^(k-i) X^i by A stays integral: its entries are
    S_s = u^(k-s) D H^[s](a) for k = deg H.  With b = (c/d) t^e,
    gamma_s = S_s c^s t^(e s) / (u^(k-s) D d^s)."""
    p, u, k = a.base.characteristic, a.denom, len(rows) - 1
    scaled = [dense.scale(row, u ** (k - i), p) for i, row in enumerate(rows)]
    S = dense.taylor_shift(scaled, dense.of_poly(a), p)
    ((e,), c), d = b.ints[0], b.denom
    return [
        _settled(a.base, 1, dense.to_ints(dense.scale(row, c**s, p), e * s), u ** (k - s) * D * d**s)
        for s, row in enumerate(S)
    ]


def _gamma_table(g: SparsePoly, a: SparsePoly, b: SparsePoly) -> list[SparsePoly]:
    """Kaplansky's table gamma_i = g^[i](a) * b^i of g in (t, X)."""
    if g.nvars != 2:
        raise PreconditionError("polynomials must live in (t, X)")
    return _kaplansky_table(dense.of_poly(g), g.denom, a, b)


def _value_table(gam: list[SparsePoly]) -> tuple[tuple[int, int], ...]:
    """(i, v(gamma_i)) for every nonzero entry of a gamma table: a monomial
    b makes each gamma_i one row in t, whose value is its lowest exponent."""
    return tuple((i, g.ints[-1][0][0]) for i, g in enumerate(gam) if not g.is_zero)


def kaplansky_normalize(fs, z: TruncatedSeries) -> ApproximationWitness:
    """Find a truncation a of z whose term values separate, per polynomial.

    Doubles the truncation depth until, for every input polynomial, the
    nonzero values v(f^[i](a) b^i) are pairwise distinct, where b is the
    exact leading monomial of z - a.  Raises InsufficientPrecisionError
    when the series precision runs out before separation happens.  The
    gamma tables of the accepted cut are kept on the witness.
    """
    fs = tuple(fs)
    if z.is_zero_to_precision:
        raise InsufficientPrecisionError(
            "series is zero to its precision; nothing to normalize", needed=z.precision + 1
        )
    offset = z.known_order()
    if offset < 0:
        raise PreconditionError("series must lie in the valuation ring")
    d = 1
    while True:
        below = offset + d
        if below > z.precision:
            raise InsufficientPrecisionError(
                "series precision exhausted before the term values separated",
                needed=below,
            )
        a, b = _split_series(z, below)
        gammas = tuple(_gamma_table(f, a, b) for f in fs)
        tables = tuple(map(_value_table, gammas))
        if all(len({v for _, v in tab}) == len(tab) for tab in tables):
            return ApproximationWitness(fs, z, a, b, d, gammas, tables)
        d *= 2


def value_via_lvpol(witness: ApproximationWitness, f: SparsePoly) -> int:
    """v f(z) as min_i v(f^[i](a) b^i), valid because those values are distinct."""
    tab = next((t for g, t in zip(witness.fs, witness.tables) if g == f), None)
    if tab is None:
        tab = _value_table(_gamma_table(f, witness.a, witness.b))
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
# K0[t] and needs no gcd.  The only gcds are those of one content per
# minimal polynomial, which makes its rows primitive.


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
        self.L = m.denom
        self.neg_m = [dense.scale(c, -1, self.p) for c in self._split(m)[0][:-1]]
        # the first dependency among 1, X, X^2, ... modulo m is m itself,
        # whose rows are primitive: m is monic, its integers over m.denom
        self.z, self.z_rows = RationalFunction.variable(m.base, 2, 1), dense.of_poly(m)

    def _split(self, f: SparsePoly) -> tuple[list, int]:
        """(P, s) with f = P(Y)/s: P over Y with K0[t] entries, s an integer."""
        P = dense.of_poly(f)
        n = len(P) - 1
        P = [dense.scale(row, self.L ** (n - j), self.p) for j, row in enumerate(P)]
        g = 1 if self.p else gcd(f.denom, *(c for row in P for c in row))
        if g > 1:
            P = [[c // g for c in row] for row in P]
        return P, f.denom // g * self.L ** max(n, 0)

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

    def min_poly(self, f: RationalFunction) -> list:
        """The minimal polynomial h of f over K0(t) as primitive rows over
        K0[t], lowest coefficient first: h is fixed up to a unit of K0."""
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
        # sum_i e_i d^i f^i = 0, whose rows e_i d^i are divided by their content
        pivots, power = [], _unit(dim, 0)
        for k in range(dim + 1):
            e = self._eliminate(pivots, power + _unit(dim + 1, k))
            if e is not None:
                break
            power = self._mul(power, A)
        else:  # pragma: no cover - dimension bound
            raise PreconditionError("no dependency found below the ring dimension")
        rows, d_pow = [], [1]
        for i in range(k + 1):
            rows.append(dense.mul(e[i], d_pow, p))
            d_pow = dense.mul(d_pow, d, p)
        g = rows[k]
        for row in rows[:k]:
            g = dense.gcd(g, row, p)
            if g == [1]:
                break
        rows = [dense.divexact(row, g, p) for row in rows]
        c = 1 if p else gcd(*(c for row in rows for c in row))
        return [[x // c for x in row] for row in rows] if c > 1 else rows

    def _bad_denominator(self, f: RationalFunction, how: str) -> str:
        return (
            f"element {ratfun_str(f, self.names)} has a denominator that {how} "
            "modulo the minimal polynomial"
        )


# ---------------------------------------------------------------------------
# Relative triangular blocks over the coefficient field K0(t)


class _CoeffPool:
    """Ordered, deduplicated registry of coefficient-field elements, numbered
    in order of first use.  A polynomial in t is one term c_k t^k per
    monomial, t^k the k-th power of one pooled entry t, its constant folded
    into the scalar; any other element of K0(t) is an entry of its own.
    """

    def __init__(self, base: BaseField):
        self.base = base
        self.entries: dict[RationalFunction, int] = {}
        self.t = RationalFunction.variable(base, 1, 0)

    def term(self, exps: dict, c, scalar: Scalar) -> list:
        """The row terms of exps * c * scalar, for c in K0(t) given as a
        RationalFunction or, when it is a polynomial, as a SparsePoly."""
        if isinstance(c, RationalFunction):
            if not c.den.is_constant:
                return [(exps, (self.entries.setdefault(c, len(self.entries)), 1), scalar)]
            c = _settled(self.base, 1, c.num.ints, c.den.ints[0][1])  # canonical sides: denominator 1
        base, entries = self.base, self.entries
        scalars = base.settle_row([x for _, x in c.ints], c.denom)
        return [
            (exps, (entries.setdefault(self.t, len(entries)), k) if k else None, base.mul(scalar, ck))
            for ((k,), _), ck in zip(c.ints, scalars)
        ]

    def poly(self, terms, nlead: int) -> SparsePoly:
        """A row over (nlead leading variables | the c-variables); every
        entry must be registered before the first call."""
        base, width = self.base, nlead + len(self.entries)
        acc = {}
        for exps, c_pow, scalar in terms:
            e = [0] * width
            for v, k in exps.items():
                e[v] = k
            if c_pow is not None:
                e[nlead + c_pow[0]] = c_pow[1]
            e = tuple(e)
            acc[e] = base.add(acc[e], scalar) if e in acc else scalar
        return SparsePoly._of_scalars(self.base, width, acc)


def _residue_at_zero(rf: RationalFunction) -> Scalar | None:
    """Value of a K0(t) element at t = 0, or None when its order there is negative."""
    base = rf.base
    if rf.is_zero:
        return base.zero
    # the lowest term of a polynomial in t alone comes last
    # canonical sides have denominator 1: their integers are the coefficients
    (ord_num,), cn = rf.num.ints[-1]
    (ord_den,), cd = rf.den.ints[-1]
    if ord_num < ord_den:
        return None
    return base.div(cn, cd) if ord_num == ord_den else base.zero


def _ambient_rf_from_t_poly(nvars: int, p: SparsePoly) -> RationalFunction:
    """Lift a polynomial in t alone into the ambient (t, gens) ring."""
    return RationalFunction.from_poly(p.map_vars([0], nvars))


class _Block(Frozen):
    """One element's rows: ``rows`` holds term lists, ``etas`` their
    elements, ``zeta_at`` the index of the requested element among all
    etas, and ``witness`` the terms of b*X_winv + a, the element again
    (empty in K0(t))."""

    __slots__ = ("rows", "etas", "zeta_at", "witness")


def _zeta_block(
    pool: _CoeffPool,
    ring: _QuotientRing,
    ctx: SeriesContext,
    zeta: RationalFunction,
    n_before: int,
) -> _Block:
    """Rows for one valuation-ring element of K0(t, z), on the variables
    from X_(n_before) on.

    Elements of K0(t) itself give a single row X - c.  Anything of degree
    k >= 2 over K0(t) gives three rows: the minimal polynomial of
    w = b/(zeta - a) (whose reduction is X^k - X^(k-1)), the inversion row
    X_w * X_winv - 1, and the affine row X_zeta - b*X_winv - a.

    The cut a is the shortest truncation of zeta's series that passes that
    reduction test exactly: the cuts below t^1, then one past each further
    nonzero term, are tried in turn.  A cut passes exactly when v(b) exceeds
    v(zeta_r - zeta) for every other root zeta_r of zeta's minimal
    polynomial, which holds from the first cut past all of them on.
    """
    base = pool.base
    one, minus = base.one, base.neg(base.one)
    j = n_before
    names = ctx.place.ambient_names

    h = ring.z_rows if zeta == ring.z else ring.min_poly(zeta)
    k = len(h) - 1

    if k == 1:
        # zeta already lies in K0(t): one affine row X - c, c = -h_0/h_1
        h0, h1 = (SparsePoly(base, 1, dense.to_ints(row)) for row in h)
        c_rf = RationalFunction.make(-h0, h1)
        if _residue_at_zero(c_rf) is None:
            raise NotInValuationRingError(
                f"element {ratfun_str(zeta, names)} lies outside the valuation ring"
            )
        row = [({j: 1}, None, one)] + pool.term({}, c_rf, minus)
        return _Block([row], [zeta], j, [])

    zs = ctx.ambient(zeta)
    o = zs.order()
    if o is not None and o < 0:
        raise NotInValuationRingError(
            f"element {ratfun_str(zeta, names)} lies outside the valuation ring"
        )
    # the coefficients of X^k - X^(k-1), lowest first
    want = [base.zero] * (k - 1) + [minus, one]
    below = 1
    while True:
        try:
            a, b = _split_series(zs, below)
        except InsufficientPrecisionError:
            raise InsufficientPrecisionError(
                f"no truncation of the series of element {ratfun_str(zeta, names)} below "
                f"t^{ctx.precision} makes the minimal polynomial of w reduce to "
                "X^k - X^(k-1); raise the precision",
                needed=2 * ctx.precision,
            ) from None
        hw = _w_min_poly(h, a, b)
        # h(a) = 0, a coefficient outside the valuation ring or a wrong
        # residue all move the cut past b
        if hw is not None and all(_residue_at_zero(c) == r for c, r in zip(hw, want)):
            break
        below = b.ints[0][0][0] + 1

    rest = zeta - _ambient_rf_from_t_poly(len(names), a)
    b_amb = _ambient_rf_from_t_poly(len(names), b)
    w_amb, winv_amb = b_amb / rest, rest / b_amb

    minpoly = [({j: k}, None, one)] + [t for i, c in enumerate(hw[:-1]) for t in pool.term({j: i}, c, one)]
    invert = [({j: 1, j + 1: 1}, None, one), ({}, None, minus)]
    affine = [({j + 2: 1}, None, one)] + pool.term({j + 1: 1}, b, minus) + pool.term({}, a, minus)
    witness = pool.term({j + 1: 1}, b, one) + pool.term({}, a, one)
    return _Block([minpoly, invert, affine], [w_amb, winv_amb, zeta], j + 2, witness)


def _w_min_poly(h: list, a: SparsePoly, b: SparsePoly) -> list | None:
    """The monic minimal polynomial of w = b/(zeta - a) over K0(t), lowest
    coefficient first, from the rows h of that of zeta (see
    ``_QuotientRing.min_poly``); None when h(a) = 0.

    zeta = a + b/w, so w is a root of W^k h(a + b/W), whose coefficient of
    W^(k-s) is gamma_s = b^s h^[s](a), Kaplansky's table of h; its leading
    one is h(a).  Divided by h(a) it is monic of degree
    k = [K0(t)(zeta) : K0(t)] = [K0(t)(w) : K0(t)], so it is the minimal
    polynomial.  Each coefficient is normalised once, by
    ``RationalFunction.make``.

    h(a) = 0 makes zeta - a a zero divisor of a split modulus: w is then
    not an element of the ring at all.
    """
    gam = _kaplansky_table(h, 1, a, b)
    if gam[0].is_zero:
        return None
    out = [RationalFunction.make(gam[s], gam[0]) for s in range(len(h) - 1, 0, -1)]
    return out + [RationalFunction.const(a.base, 1, 1)]


# ---------------------------------------------------------------------------
# The public constructors


def _relative_system(pres: DiscretePresentation, zetas, precision: int) -> TriangularSystem:
    """Relative certificate over K0(t) for the requested elements of K0(t, z).

    Each distinct element, and z itself, gets one block of rows; the
    blocks share one coefficient pool, whose entries become the system's
    coefficient table, and the block for z carries the witness for z.
    """
    base = pres.base
    place = realize_presentation(pres, precision)
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
        blk = _zeta_block(pool, ring, ctx, f, n_total)
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
) -> TriangularSystem:
    """Relative certificate over K0(t) for the extension by one algebraic series.

    The generator z is realized by Hensel lifting from the given residue;
    the system's coefficient field is K0(t), recorded through the
    coefficient table.
    """
    base = min_poly.base
    pres = DiscretePresentation(base=base, min_poly=min_poly, residue=base.coerce(residue))
    return _relative_system(pres, [RationalFunction.variable(base, 2, 1)], precision)


def uniformize_immediate_simple(z: TruncatedSeries, zetas) -> TriangularSystem:
    """Certificate over K0(t) for K0(t, z) with z a series limit, named t and z.

    A separating truncation a of z is found first; with b the exact
    leading monomial of z - a, every requested element g(z)/h(z) rewrites
    as a ratio of units in ztilde = (z - a)/b, giving one row per element
    whose X-partial is a unit; its coefficients, the witness's gamma
    tables of g and h over their lowest term, are polynomials in t like a
    and b, so the coefficient table is at most (t,).  T is ztilde alone.
    """
    base = z.base
    place = DiscreteSeriesPlace(base, "t", ("z",), (z,), z.precision)
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
    # the tables in the order of polys: a zero element's denominator has one too
    gammas = iter(witness.gammas)
    for j, f in enumerate(zetas, 1):
        if f.num.is_zero:
            next(gammas)
            rows.append([({j: 1}, None, one)])
            continue
        gam_g, gam_h = next(gammas), next(gammas)
        low_h = _min_term(gam_h)
        ((e,), c), d = low_h.ints[0], low_h.denom
        if _min_term(gam_g).ints[0][0][0] < e:
            raise NotInValuationRingError(f"element {j} lies outside the valuation ring")
        # (h(z) X_j - g(z))/n_h, with h(z) = sum_i gamma_i(h) ztilde^i and
        # n_h = (c/d) t^e the lowest term of both tables, which divides every entry
        over_n = lambda g: _settled(base, 1, tuple(((k - e,), x * d) for (k,), x in g.ints), g.denom * c)
        rows.append(
            [t for i, gi in enumerate(gam_h) if not gi.is_zero for t in pool.term({0: i, j: 1}, over_n(gi), one)]
            + [t for i, gi in enumerate(gam_g) if not gi.is_zero for t in pool.term({0: i}, over_n(gi), minus)]
        )
    # z = b*ztilde + a can extend the pool, so it comes before any row is sized
    z_terms = pool.term({0: 1}, b, one) + pool.term({}, a, one)
    fs = [pool.poly(row, 1 + n) for row in rows]

    zvar = RationalFunction.variable(base, 2, 1)
    ztilde = (zvar - _ambient_rf_from_t_poly(2, a)) / _ambient_rf_from_t_poly(2, b)

    return TriangularSystem(
        place=place,
        tvars=(ztilde,),
        etas=tuple(zetas),
        fs=tuple(fs),
        coeff_field_names=("t",),
        coeff_table=tuple(pool.entries),
        zeta_indices=tuple(range(n)),
        witnesses=(("z", RationalFunction.from_poly(pool.poly(z_terms, 1 + n))),),
    )


def _coerce_ambient(base: BaseField, nvars: int, f) -> RationalFunction:
    if isinstance(f, RationalFunction):
        if f.nvars != nvars or f.base != base:
            raise PreconditionError("element does not live in the ambient field")
        return f
    if isinstance(f, SparsePoly):
        return RationalFunction.from_poly(f)
    raise PreconditionError(f"cannot interpret {f!r} as an ambient element")


def _min_term(gam: list[SparsePoly]) -> SparsePoly:
    """The lowest t-term across the table, as a monomial; unique by separation."""
    lows = [g for g in gam if not g.is_zero]
    if not lows:
        raise PreconditionError("element vanishes identically")
    g = min(lows, key=lambda g: g.ints[-1][0])
    return _settled(g.base, 1, g.ints[-1:], g.denom)


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
    inner = uniformize_abhyankar(inner_place, list(outer.coeff_table), max_steps=max_steps)
    return compose(outer, inner)


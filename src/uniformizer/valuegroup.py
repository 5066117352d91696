"""Finitely generated ordered abelian groups of real-lexicographic type.

A group order is a tuple of blocks; each block is a tuple of positive
``SurdScalar`` weights that are linearly independent over the rationals.
An element is a rational coordinate vector split across the blocks, kept
as integers ``nums`` over one positive ``den`` in lowest terms; its sign
is decided lexicographically, block by block, where the contribution of a
block is the exact real number  sum(coord * weight).

Each order computes, once per block, the sorted radicands of its weights,
the weight matrix over those radicands scaled to integers, their 64-bit
root bounds and, per generator, the estimate of its weight at those
bounds with an error bound.  The weights are data: every value and sign
is computed on those integer rows, and ``block_values`` builds one
``SurdScalar`` per block only to print an element.  The sign of a block's
part x is the sign of sum(x_i * est_i) when that exceeds
sum(|x_i| * err_i) (proved at ``_Block``); otherwise ``surd.surd_sign``
decides it exactly on x times the matrix.  They also give a term's
x-exponents h the interval h . est +- h . err around its first-block
value; the term scan drops a term whose interval lies above another's
before any exact comparison (``GroupOrder._may_be_least``).  Ranks,
determinants and unimodular inverses come from one fraction-free
elimination (``gauss_jordan``).

The Perron reduction carries, per basis row, an integer estimate of its
value at b bits and an error bound, the interval that ``surd_sign`` filters
on.  A step updates the estimate exactly, since it is linear in the row;
the minimal row and each floor quotient are read off the intervals, and
only where intervals overlap does b double, for the rest of the reduction.
Root bounds at every (radicands, b) come from the memo in ``surd`` that
``surd_sign`` shares.  ``perron_is_valid`` checks every result exactly.

Independence of the weights inside a block makes the per-block value map
injective on rational vectors, which several algorithms here rely on:
distinct basis rows always have distinct values, the minimal-value row in
the Perron reduction is unique, and only a zero coordinate row has a zero
value vector, so ties are decided on the integers.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .errors import DimensionError, InputError, PreconditionError, ResourceError
from .fields import Frozen, clear_denominators
from .surd import FILTER_BITS, SurdScalar, root_bounds, surd_sign

DEFAULT_MAX_PERRON_STEPS = 10_000
_ENV_CAP = "UNIFORMIZER_MAX_PERRON_STEPS"


def _weight_matrix(weights) -> tuple[tuple[int, ...], list[list[int]]]:
    """(radicands, rows): the sorted radicands of the weights, and for each
    weight its coefficients on them, all scaled by one positive integer."""
    radicands = tuple(sorted({d for w in weights for _, d in w.terms}))
    at, r = {d: i for i, d in enumerate(radicands)}, len(radicands)
    flat = [0] * (len(weights) * r)
    for k, w in enumerate(weights):
        for q, d in w.terms:
            flat[k * r + at[d]] = q
    nums, _ = clear_denominators(flat)
    return radicands, [nums[k * r : (k + 1) * r] for k in range(len(weights))]


def gauss_jordan(rows, ncols: int) -> tuple[int, int, list[list[int]]]:
    """(rank, sign, reduced rows) of an integer matrix, by fraction-free
    Gauss-Jordan elimination on its first ncols columns.

    Each step takes the next column with a nonzero entry at or below the
    current row, swaps that entry into place (sign records the parity of
    the swaps), and clears the column in every other row by
    row <- (pivot * row - entry * pivot row) / previous pivot.  Every entry
    is then a minor of the matrix, so each division is exact (Bareiss
    1968), and after k steps the k pivot entries all equal the k-th pivot,
    the minor of the row-swapped matrix on its first k rows and the k pivot
    columns.  Columns past ncols
    ride along: on [A | I] with A square and nonsingular the result is
    [d*I | d*A^-1] with d = sign * det(A).
    """
    m = [list(row) for row in rows]
    rank, sign, prev = 0, 1, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        prow = m[rank]
        piv = prow[col]
        for i, row in enumerate(m):
            f = row[col]
            # a row with no entry in the column is only scaled, by piv/prev
            if i != rank and (f or piv != prev):
                m[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
        prev = piv
        rank += 1
    return rank, sign, m


class _Block(Frozen):
    """One block's weights as an integer matrix over their radicands.

    Row i of ``matrix`` holds the coefficients of weight i on ``radicands``,
    all scaled by one positive integer S.  The sign filter keeps, at b =
    FILTER_BITS, _est[i] = matrix[i] . roots and _err[i] = sum(|matrix[i]|).
    For an integer row x with c = x . matrix and est = x . _est = c . roots,
    2**b * S * V(x) - est = sum_j c_j * (2**b * sqrt(d_j) - roots[j]) for the
    block value V(x).  Each bracket lies in [0, 1), so the error is at most
    sum(|c|) <= err = |x| . _err, and |est| > err gives the sign of V(x).
    A non-negative row h, such as a term's x-exponents, has |h| = h, so
    2**b * S * V(h) lies in [est(h) - err(h), est(h) + err(h)] with
    est(h) = h . _est and err(h) = h . _err.  On the order's first block, a
    lower end above g's upper end gives V(h) > V(g), so h's value is above
    g's whatever later blocks hold; and a least h has est(h) - err(h) <=
    2**b * S * V(h) <= 2**b * S * V(g) <= est(g) + err(g) for every g.  So
    dropping each h whose lower end exceeds the least upper end keeps every
    vector of least value.
    """

    __slots__ = ("weights", "radicands", "matrix", "roots", "_est", "_err")

    @staticmethod
    def of(weights) -> "_Block":
        weights = tuple(weights)
        radicands, rows = _weight_matrix(weights)
        roots = root_bounds(radicands)
        est = tuple(sum(map(mul, row, roots)) for row in rows)
        err = tuple(sum(map(abs, row)) for row in rows)
        return _Block(weights, radicands, tuple(map(tuple, rows)), roots, est, err)

    def value(self, x) -> list[int]:
        """Integer value vector of an integer coordinate row."""
        return [sum(map(mul, x, col)) for col in zip(*self.matrix)]

    def sign(self, v) -> int:
        """Sign of a value vector."""
        return surd_sign(v, self.radicands, self.roots)


class GroupOrder(Frozen):
    """Blocks of weights defining a lexicographic product of rank-1 groups.

    ``_blocks`` and ``_ngens`` are caches: ``==``, ``hash`` and ``repr``
    see ``blocks`` alone.
    """

    __slots__ = ("blocks", "_blocks", "_ngens")

    def __init__(self, blocks: tuple[tuple[SurdScalar, ...], ...]):
        # equal blocks given as lists or tuples make equal, hashable orders
        blocks = tuple(map(tuple, blocks))
        int_blocks = []
        for b, block in enumerate(blocks):
            if not block:
                raise PreconditionError(f"block {b} is empty")
            for w in block:
                if w.sign() != 1:
                    raise PreconditionError(f"weight {w} in block {b} is not positive")
            blk = _Block.of(block)
            if gauss_jordan(blk.matrix, len(blk.radicands))[0] != len(block):
                raise PreconditionError(
                    f"weights in block {b} are linearly dependent over Q"
                )
            int_blocks.append(blk)
        set_blocks, set_int_blocks, set_ngens, set_key = self._setters
        set_blocks(self, blocks)
        set_int_blocks(self, tuple(int_blocks))
        set_ngens(self, sum(len(b) for b in blocks))
        set_key(self, (blocks,))

    def _may_be_least(self, heads) -> list[bool]:
        """Per non-negative integer vector (its first-block entries read, the
        rest ignored): False where its first-block value is certainly above
        another's, so it cannot be least; see ``_Block``."""
        block = self._blocks[0]
        est = [sum(map(mul, h, block._est)) for h in heads]
        err = [sum(map(mul, h, block._err)) for h in heads]
        top = min(map(add, est, err))
        return [e - d <= top for e, d in zip(est, err)]

    def _sign_of(self, x) -> int:
        """Lexicographic sign of an integer coordinate vector, block by block."""
        at = 0
        for block in self._blocks:
            part = x[at : at + len(block.weights)]
            at += len(block.weights)
            if any(part):
                est = sum(map(mul, part, block._est))
                if abs(est) > sum(map(mul, map(abs, part), block._err)):
                    return 1 if est > 0 else -1
                # independent weights: a nonzero row has a nonzero value
                return block.sign(block.value(part))
        return 0

    @property
    def ngens(self) -> int:
        return self._ngens

    def element(self, coords) -> "GroupElement":
        """The element with the given int, Fraction or string coordinates."""
        coords = tuple(coords)
        if len(coords) != self.ngens:
            raise DimensionError(f"expected {self.ngens} coordinates, got {len(coords)}")
        if all(type(c) is int for c in coords):
            return GroupElement(self, coords, 1)
        # the lcm of reduced denominators leaves nums and den coprime
        nums, den = clear_denominators(tuple(map(Fraction, coords)))
        return GroupElement(self, tuple(nums), den)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ngens, 1)

    def block_values(self, coords) -> list[SurdScalar]:
        """Exact real contribution of each block for the given coordinates."""
        out, at = [], 0
        for block in self.blocks:
            part = coords[at : at + len(block)]
            at += len(block)
            out.append(SurdScalar.make((c * q, d) for c, w in zip(part, block) if c for q, d in w.terms))
        return out


class GroupElement(Frozen):
    """An element of an ordered group: coordinates ``nums / den`` on the
    order's generators, with ``den`` positive and the fraction in lowest
    terms, so equal elements have equal fields."""

    __slots__ = ("order", "nums", "den")

    @property
    def coords(self) -> tuple:
        """The coordinates, as ints when ``den`` is 1, else as Fractions."""
        return self.nums if self.den == 1 else tuple(Fraction(n, self.den) for n in self.nums)

    def _plus(self, other: "GroupElement", s: int) -> "GroupElement":
        """self + s * other, for s = 1 or -1, in lowest terms."""
        if not isinstance(other, GroupElement) or other.order != self.order:
            raise DimensionError("elements belong to different ordered groups")
        if self.den == other.den == 1:
            return GroupElement(self.order, tuple(map(add if s == 1 else sub, self.nums, other.nums)), 1)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, s * (den // other.den)
        nums = tuple(p * fa + q * fb for p, q in zip(self.nums, other.nums))
        g = gcd(den, *nums)
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        return GroupElement(self.order, nums, den)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return self._plus(other, 1)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self._plus(other, -1)

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.order, tuple(-n for n in self.nums), self.den)

    def sign(self) -> int:
        # a positive denominator keeps every block sign
        return self.order._sign_of(self.nums)

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __str__(self):
        vals = self.order.block_values(self.coords)
        body = ", ".join(str(v) for v in vals)
        return body if len(vals) > 1 else body or "0"

    def __repr__(self):
        coords = tuple(Fraction(n, self.den) for n in self.nums)
        return f"{type(self).__qualname__}(order={self.order!r}, coords={coords!r})"


def compare(a: GroupElement, b: GroupElement) -> int:
    """-1, 0, or 1 as a is below, equal to, or above b in the group order."""
    return (a - b).sign()


def rational_rank(order: GroupOrder) -> int:
    # weights are independent within each block, so the generators are free
    return order.ngens


# ---------------------------------------------------------------------------
# Perron-style positive bases


class PerronResult(Frozen):
    """A positive basis together with the coordinates of the inputs.

    ``change`` holds the basis rows as integer coordinate rows on the
    order's generators, and ``coeffs`` one non-negative integer row per
    input alpha, so that alphas[i] == sum_j coeffs[i][j] * change[j].  The
    output is not canonical; ``perron_is_valid`` is the contract.
    """

    __slots__ = ("coeffs", "change")

    def __init__(self, coeffs, change):
        Frozen.__init__(self, coeffs, change)


def _int_rows(matrix) -> list[list[int]]:
    """The rows of a matrix as lists, refusing any entry that is not an ``int``
    (the same rule ``perron_is_valid`` applies): truncating a ``Fraction``
    would answer for another matrix."""
    rows = [list(row) for row in matrix]
    for row in rows:
        for c in row:
            if not isinstance(c, int):
                raise PreconditionError(f"matrix entry {c!r} is not an int")
    return rows


def int_det(matrix) -> int:
    """Exact determinant of an integer matrix."""
    m = _int_rows(matrix)
    if not m:
        return 1
    rank, sign, m = gauss_jordan(m, len(m))
    return sign * m[-1][-1] if rank == len(m) else 0


def unimodular_inverse(matrix) -> list[list[int]]:
    """Inverse of an integer matrix with determinant +-1, as integers."""
    rows = _int_rows(matrix)
    n = len(rows)
    aug = [[rows[i][j] for j in range(n)] + [int(i == j) for j in range(n)] for i in range(n)]
    rank, _, aug = gauss_jordan(aug, n)
    if rank < n:
        raise PreconditionError("matrix is singular")
    # [d*I | d*A^-1]: the inverse is integral exactly when d = +-1
    d = aug[0][0] if n else 1
    if d not in (1, -1):
        raise PreconditionError("matrix is not unimodular")
    return [[d * c for c in row[n:]] for row in aug]


class _Budget:
    def __init__(self, steps: int):
        self.cap = self.left = steps

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceError(
                f"positive-basis reduction exceeded its step cap of {self.cap}; "
                f"raise max_steps or {_ENV_CAP} to allow more steps"
            )


def _estimates(block: _Block, vals, bits: int) -> list[int]:
    """vals[j] . root_bounds(radicands, bits) for each value vector."""
    roots = root_bounds(block.radicands, bits)
    return [sum(map(mul, v, roots)) for v in vals]


def _perron_single_block(block: _Block, alphas, budget: _Budget):
    """Positive basis for one rank-1 block by floor-quotient reduction.

    Repeatedly subtracts the minimal-value basis row m from every other row
    j, q = floor(V_j / V_m) times, until every input coordinate row is
    non-negative.  Each row's value V_j is kept as an integer vector
    vals[j] over the block's radicands, and with the root bounds r at b bits
    each row carries an interval

        A_j = vals[j] . r,   E_j = sum(|vals[j]|),   |2**b * V_j - A_j| < E_j

    (the bound of ``surd.surd_sign``).  A_j is linear in the row, so the
    step vals[j] -= q * vals[m] updates it exactly as A_j -= q * A_m; only
    E_j is recomputed.  The minimal row is the one whose interval lies below
    every other, and q is (A_j - E_j) // (A_m + E_m) when that equals
    (A_j + E_j) // (A_m - E_m), since the two bound V_j / V_m from either
    side.  In any other case b doubles, for the rest of the reduction, and
    every A_j is recomputed from the root bounds at the new b.

    The refinement ends.  The weights are independent, so only a zero row
    has value zero; the basis stays unimodular, so no row is an integer
    multiple of another.  Hence the row values are positive and distinct,
    the minimal row is unique, and no V_j / V_m is an integer.  As b grows,
    2**b * V_j doubles while E_j stays put, so the intervals separate and
    both floor bounds meet floor(V_j / V_m).  Every choice of m and q is
    therefore the exact one, and every quotient is at least 1.
    """
    r = len(block.weights)
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    coeffs = [list(map(int, a)) for a in alphas]
    if r == 1:
        # a single positive weight: non-negative value forces a non-negative
        # coordinate, so the identity basis already works
        if any(row[0] < 0 for row in coeffs):
            raise PreconditionError("negative coordinate on a single positive weight")
        return basis, coeffs
    vals = [list(row) for row in block.matrix]
    err, est, bits = list(block._err), list(block._est), FILTER_BITS
    while any(c < 0 for row in coeffs for c in row):
        m = min(range(r), key=est.__getitem__)
        top = est[m] + err[m]
        if any(est[k] - err[k] < top for k in range(r) if k != m):
            bits *= 2
            est = _estimates(block, vals, bits)
            continue
        for j in range(r):
            if j == m:
                continue
            budget.spend()
            while True:
                low = est[m] - err[m]
                if low > 0:
                    q = (est[j] - err[j]) // (est[m] + err[m])
                    if q == (est[j] + err[j]) // low:
                        break
                bits *= 2
                est = _estimates(block, vals, bits)
            basis[j] = [a - q * b for a, b in zip(basis[j], basis[m])]
            vals[j] = [a - q * b for a, b in zip(vals[j], vals[m])]
            est[j] -= q * est[m]
            err[j] = sum(map(abs, vals[j]))
            for row in coeffs:
                row[m] += q * row[j]
    return basis, coeffs


def _perron_multi(blocks, alphas, budget: _Budget):
    width = sum(len(b.weights) for b in blocks)
    if len(blocks) == 1:
        return _perron_single_block(blocks[0], alphas, budget)
    r1 = len(blocks[0].weights)
    splus = [k for k, a in enumerate(alphas) if any(a[:r1])]
    s0 = [k for k, a in enumerate(alphas) if not any(a[:r1])]
    top, n_top = _perron_single_block(blocks[0], [alphas[k][:r1] for k in splus], budget)
    low, n_low = _perron_multi(blocks[1:], [alphas[k][r1:] for k in s0], budget)
    rest = width - r1
    low_inv = unimodular_inverse(low)
    low_sum = [sum(low[l][c] for l in range(rest)) for c in range(rest)]

    # Coordinates of the tails of the positive-block alphas on the lower basis.
    tails = []
    shift = 1
    for pos, k in enumerate(splus):
        tail = alphas[k][r1:]
        p = [sum(int(tail[i]) * low_inv[i][l] for i in range(rest)) for l in range(rest)]
        tails.append(p)
        worst = max((-c for c in p), default=0)
        shift = max(shift, 1 + worst)

    # Lower the lifted top rows far enough that every tail coordinate,
    # corrected by shift * (row sum of the top coefficients), is >= 0.
    basis = [top[j] + [-shift * c for c in low_sum] for j in range(r1)]
    basis += [[0] * r1 + low[l] for l in range(rest)]

    coeffs: list[list[int]] = [[] for _ in alphas]
    for pos, k in enumerate(splus):
        s = sum(n_top[pos])
        coeffs[k] = list(n_top[pos]) + [tails[pos][l] + shift * s for l in range(rest)]
    for pos, k in enumerate(s0):
        coeffs[k] = [0] * r1 + list(n_low[pos])
    return basis, coeffs


def _resolve_cap(max_steps: int | None) -> int:
    if max_steps is not None:
        return max_steps
    raw = os.environ.get(_ENV_CAP)
    if raw is None:
        return DEFAULT_MAX_PERRON_STEPS
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InputError(f"{_ENV_CAP} must be a non-negative integer, got {raw!r}")
    return cap


def perron_positive_basis(order: GroupOrder, alphas, max_steps: int | None = None) -> PerronResult:
    """Basis of the group with positive rows expressing the alphas positively.

    Every alpha must be a non-negative integer vector element of ``order``.
    Returns rows forming a unimodular change of generators, each of positive
    value, such that each alpha is a non-negative integer combination of the
    rows.  Raises ResourceError, naming the knob, when the step cap
    (argument, else the UNIFORMIZER_MAX_PERRON_STEPS environment variable,
    else 10000) is exhausted; a step is one floor-quotient subtraction.
    """
    alphas = list(alphas)
    vectors = []
    for i, a in enumerate(alphas):
        if not isinstance(a, GroupElement):
            a = order.element(a)
        elif a.order != order:
            raise DimensionError(f"alphas[{i}] belongs to a different ordered group")
        if a.den != 1:
            coords = ", ".join(map(str, a.coords))
            raise PreconditionError(f"alphas[{i}]: coordinates ({coords}) are not all integers")
        if a.sign() < 0:
            raise PreconditionError(f"alphas[{i}]: value {a} is negative")
        vectors.append(list(a.nums))

    budget = _Budget(_resolve_cap(max_steps))
    rows, coeffs = _perron_multi(order._blocks, vectors, budget)
    result = PerronResult(tuple(map(tuple, coeffs)), tuple(map(tuple, rows)))
    if not perron_is_valid(order, alphas, result):
        raise ResourceError("reduction produced an invalid basis")  # pragma: no cover
    return result


def perron_is_valid(order: GroupOrder, alphas, result: PerronResult) -> bool:
    """Check the full contract of ``perron_positive_basis`` on a candidate.

    Every clause runs on the integer rows of ``result.change``: the rows
    hold ``int`` entries only, have determinant +-1 and positive values,
    and each alpha, an element of ``order``, is the combination of the rows
    by its non-negative integer coefficient row.
    """
    n = order.ngens
    change = result.change
    if len(change) != n or any(len(row) != n for row in change):
        return False
    if any(not isinstance(c, int) for row in change for c in row):
        return False
    if int_det(change) not in (1, -1):
        return False
    if any(order._sign_of(row) != 1 for row in change):
        return False
    alphas = list(alphas)
    if len(result.coeffs) != len(alphas):
        return False
    columns = list(zip(*change))
    for a, row in zip(alphas, result.coeffs):
        if len(row) != n or any((not isinstance(c, int)) or c < 0 for c in row):
            return False
        target = a if isinstance(a, GroupElement) else order.element(a)
        if target.order != order or target.den != 1 or target.nums != tuple(sum(map(mul, row, col)) for col in columns):
            return False
    return True

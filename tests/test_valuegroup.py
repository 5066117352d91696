"""Ordered groups of values and positive-basis computation."""

import importlib.util
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import uniformizer.valuegroup as vg
from uniformizer.errors import DimensionError, InputError, PreconditionError, ResourceError
from uniformizer.surd import FILTER_BITS, SurdScalar, root_bounds
from uniformizer.valuegroup import (
    GroupOrder,
    PerronResult,
    compare,
    int_det,
    perron_is_valid,
    perron_positive_basis,
    rational_rank,
    unimodular_inverse,
)
from frozen_copy import replace
from perron_oracle import brute_force_positive_basis


def _order(*blocks):
    return GroupOrder(
        tuple(tuple(SurdScalar.make([(q, d)]) for q, d in block) for block in blocks)
    )


ORDER_R2 = _order([(1, 1), (1, 2)])  # weights 1, sqrt(2)
ORDER_2BLOCK = _order([(1, 1)], [(1, 1), (1, 2)])


def test_order_rejects_dependent_weights():
    with pytest.raises(PreconditionError):
        _order([(1, 2), (2, 2)])  # sqrt2 and 2*sqrt2 are dependent
    with pytest.raises(PreconditionError):
        _order([(-1, 1)])


def test_compare_is_lexicographic_across_blocks():
    # first block dominates regardless of the second
    a = ORDER_2BLOCK.element([1, -100, -100])
    b = ORDER_2BLOCK.element([0, 100, 100])
    assert compare(a, b) == 1
    # ties fall through to the second block
    c = ORDER_2BLOCK.element([1, 1, 0])
    d = ORDER_2BLOCK.element([1, 0, 1])  # 1 vs sqrt(2) in block 2
    assert compare(c, d) == -1


def test_sign_within_block_uses_exact_surds():
    # 3 - 2*sqrt(2) > 0
    assert ORDER_R2.element([3, -2]).sign() == 1
    assert ORDER_R2.element([-3, 2]).sign() == -1
    assert ORDER_R2.element([0, 0]).sign() == 0


def test_rational_rank():
    assert rational_rank(ORDER_2BLOCK) == 3


def test_int_det_and_unimodular_inverse():
    m = [[3, -2], [-1, 1]]
    assert int_det(m) == 1
    inv = unimodular_inverse(m)
    assert inv == [[1, 2], [1, 3]]


def test_perron_known_instance_rank2():
    # weights (1, sqrt2), alpha = (2, -1): v = 2 - sqrt2 > 0
    alpha = ORDER_R2.element([2, -1])
    res = perron_positive_basis(ORDER_R2, [alpha])
    assert res.change == ((3, -2), (-1, 1))
    assert res.coeffs == ((1, 1),)
    assert perron_is_valid(ORDER_R2, [alpha], res)


def test_brute_force_oracle_rank2():
    hit = brute_force_positive_basis(ORDER_R2.blocks[0], [[2, -1]], bound=3)
    assert hit is not None
    basis, coeffs = hit
    assert basis == [[-1, 1], [2, -1]]
    assert coeffs == [[0, 1]]


def test_perron_multi_block_lift():
    alpha = ORDER_2BLOCK.element([1, 2, -1])
    res = perron_positive_basis(ORDER_2BLOCK, [alpha])
    assert perron_is_valid(ORDER_2BLOCK, [alpha], res)


def test_perron_rejects_negative_alpha():
    alpha = ORDER_R2.element([-2, 1])  # sqrt2 - 2 < 0
    with pytest.raises(PreconditionError):
        perron_positive_basis(ORDER_R2, [alpha])


def test_perron_cap_raises_resource_error(monkeypatch):
    monkeypatch.setenv("UNIFORMIZER_MAX_PERRON_STEPS", "1")
    order = _order([(1, 1), (1, 2), (1, 3)])
    alphas = [order.element([4, -1, -1]), order.element([5, -2, 1])]
    with pytest.raises(ResourceError, match="UNIFORMIZER_MAX_PERRON_STEPS"):
        perron_positive_basis(order, alphas)


def test_perron_validator_rejects_an_alpha_of_another_group():
    # (3, -1) is positive under both weights, so only the group differs
    alpha = ORDER_R2.element([3, -1])
    res = perron_positive_basis(ORDER_R2, [alpha])
    assert perron_is_valid(ORDER_R2, [alpha], res)
    other = _order([(1, 1), (1, 3)])  # weights 1, sqrt(3)
    foreign = other.element([3, -1])
    assert not perron_is_valid(ORDER_R2, [foreign], res)
    with pytest.raises(DimensionError):
        perron_positive_basis(ORDER_R2, [foreign])


def test_perron_zero_alpha_and_empty():
    res = perron_positive_basis(ORDER_R2, [ORDER_R2.zero()])
    assert perron_is_valid(ORDER_R2, [ORDER_R2.zero()], res)
    res = perron_positive_basis(ORDER_R2, [])
    assert perron_is_valid(ORDER_R2, [], res)


# ---------------------------------------------------------------------------
# randomized properties

_WEIGHT_SETS = [
    [(1, 1), (1, 2)],
    [(1, 1), (1, 3)],
    [(2, 1), (1, 5)],
    [(1, 1), (1, 2), (1, 3)],
    [(1, 2), (1, 3), (1, 5)],
]


@st.composite
def perron_instances(draw):
    weights = draw(st.sampled_from(_WEIGHT_SETS))
    order = _order(weights)
    r = order.ngens
    n_alphas = draw(st.integers(min_value=1, max_value=4))
    alphas = []
    for _ in range(n_alphas):
        for _attempt in range(40):
            coords = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(r)]
            g = order.element(coords)
            if g.sign() >= 0:
                alphas.append(g)
                break
    return order, alphas


@given(perron_instances())
@settings(max_examples=60, deadline=None)
def test_perron_output_always_valid(inst):
    order, alphas = inst
    res = perron_positive_basis(order, alphas)
    assert perron_is_valid(order, alphas, res)


@given(perron_instances())
@settings(max_examples=30, deadline=None)
def test_rank2_brute_force_agreement(inst):
    order, alphas = inst
    if order.ngens != 2:
        return
    res = perron_positive_basis(order, alphas)
    assert perron_is_valid(order, alphas, res)
    coords = [[int(c) for c in a.coords] for a in alphas]
    hit = brute_force_positive_basis(order.blocks[0], coords, bound=10)
    assert hit is not None
    basis, coeffs = hit
    # the oracle result satisfies the same contract
    for row in basis:
        assert order.element(row).sign() == 1
    assert int_det(basis) in (1, -1)
    for a, crow in zip(coords, coeffs):
        assert all(c >= 0 for c in crow)
        recon = [
            sum(crow[j] * basis[j][i] for j in range(len(basis)))
            for i in range(len(a))
        ]
        assert recon == a


@given(
    st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=3, max_size=3),
)
@settings(max_examples=100)
def test_ordering_total_and_translation_invariant(a, b):
    order = _order([(1, 1), (1, 2), (1, 3)])
    ga, gb = order.element(a), order.element(b)
    c = compare(ga, gb)
    assert c in (-1, 0, 1)
    assert compare(gb, ga) == -c
    shift = order.element([1, -2, 3])
    assert compare(ga + shift, gb + shift) == c
    assert (ga == gb) == (c == 0)


# ---------------------------------------------------------------------------
# signs on the integer weight matrix


def test_rational_coordinates():
    # 3/2 - sqrt(2) > 0 and 99/7 - 10*sqrt(2) > 0 (9801 > 9800)
    assert ORDER_R2.element([Fraction(3, 2), -1]).sign() == 1
    assert ORDER_R2.element([Fraction(99, 7), -10]).sign() == 1
    assert ORDER_R2.element([Fraction(-99, 7), 10]).sign() == -1
    a = ORDER_R2.element([Fraction(1, 3), Fraction(1, 5)])
    b = ORDER_R2.element([Fraction(2, 6), Fraction(3, 15)])
    assert compare(a, b) == 0
    # rational weights too: 1/3 and sqrt(2)/5 at (3/4, -7/4): 1/4 - 7*sqrt(2)/20 < 0
    order = _order([(Fraction(1, 3), 1), (Fraction(1, 5), 2)])
    assert order.element([Fraction(3, 4), Fraction(-7, 4)]).sign() == -1
    assert order.element([Fraction(3, 4), Fraction(-1, 4)]).sign() == 1
    assert ORDER_2BLOCK.element([Fraction(1, 2), Fraction(-9), 0]).sign() == 1
    assert ORDER_2BLOCK.element([0, Fraction(-1, 2), Fraction(1, 3)]).sign() == -1


_ORACLE_WEIGHTS = [(Fraction(1, 2), 1), (Fraction(1, 3), 2), (Fraction(5, 4), 3)]


@given(st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=50), min_size=3, max_size=3))
@settings(max_examples=150)
def test_sign_matches_decimal_oracle(coords):
    order = _order(_ORACLE_WEIGHTS)
    with localcontext() as ctx:
        ctx.prec = 100
        value = sum(
            Decimal(c.numerator) / c.denominator * Decimal(q.numerator) / q.denominator * Decimal(d).sqrt()
            for c, (q, d) in zip(coords, _ORACLE_WEIGHTS)
        )
    if abs(value) > Decimal("1e-80"):
        assert order.element(coords).sign() == (1 if value > 0 else -1)
    elif value == 0:
        assert order.element(coords).sign() == 0


def _convergents(d, low, high):
    """(p, q) of the continued-fraction convergents of sqrt(d) with low <= q < high."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p0, q0, p, q = 1, 0, a0, 1
    out = []
    while q < high:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        if q >= low:
            out.append((p, q))
    return out


def _decimal_sign(order, coords, digits=150):
    """Lexicographic sign of a coordinate vector, block by block, in Decimal."""
    at = 0
    with localcontext() as ctx:
        ctx.prec = digits
        for block in order.blocks:
            value = Decimal(0)
            for c, w in zip(coords[at : at + len(block)], block):
                c = Fraction(c)
                for q, d in w.terms:
                    value += Decimal(c.numerator) * q.numerator / (c.denominator * q.denominator) * Decimal(d).sqrt()
            at += len(block)
            if value:
                return 1 if value > 0 else -1
    return 0


def _near_ties():
    """(order, coords) pairs with coordinates near q in [2**33, 2**40) and a
    block value near 1/q, where the 64-bit filter cannot decide."""
    r2, r3, r23 = _order([(1, 1), (1, 2)]), _order([(1, 1), (1, 3)]), _order([(1, 1), (1, 2), (1, 3)])
    lex3 = _order([(1, 1)], [(1, 1), (1, 3)])
    cases = []
    for p, q in _convergents(2, 2**33, 2**40):
        cases += [(r2, (p, -q)), (r2, (-p, q)), (r23, (p, -q, 0)), (ORDER_2BLOCK, (0, p, -q))]
    for p, q in _convergents(3, 2**33, 2**40):
        cases += [(r3, (p, -q)), (r3, (-p, q)), (r23, (-p, 0, q)), (lex3, (0, -p, q))]
    return cases


def _count_exact_signs(monkeypatch):
    calls = []
    exact = vg._Block.sign
    monkeypatch.setattr(vg._Block, "sign", lambda block, v: calls.append(v) or exact(block, v))
    return calls


def test_filter_hands_near_ties_to_the_exact_kernel(monkeypatch):
    cases = _near_ties()
    assert len(cases) >= 16
    calls = _count_exact_signs(monkeypatch)
    for order, coords in cases:
        want = _decimal_sign(order, coords)
        assert want != 0
        assert order.element(coords).sign() == want
        assert compare(order.element(coords), order.zero()) == want
        # mixed denominators: a - b = 5/6 * coords
        a, b = order.element([Fraction(c, 2) for c in coords]), order.element([Fraction(-c, 3) for c in coords])
        assert (a.den, b.den) == (2, 3) and compare(a, b) == want
    assert len(calls) >= len(cases)
    calls.clear()
    for order, coords in [(ORDER_R2, (3, -2)), (ORDER_R2, (-99, 70)), (ORDER_2BLOCK, (0, 7, -5))]:
        assert order.element(coords).sign() == _decimal_sign(order, coords)
    assert calls == []


_RATIONALS = st.fractions(min_value=-10**4, max_value=10**4, max_denominator=12)


@st.composite
def _spelled(draw, q):
    """q as an int (when integral), a Fraction or a string."""
    kinds = ["fraction", "string"] + (["int"] if q.denominator == 1 else [])
    kind = draw(st.sampled_from(kinds))
    return int(q) if kind == "int" else q if kind == "fraction" else str(q)


def test_element_text_on_weights_sharing_a_radicand():
    # weights 1 and 1 + sqrt(2) share radicand 1; a second block holds sqrt(8)/2
    one, shared = SurdScalar.rational(1), SurdScalar.make([(1, 1), (1, 2)])
    order = GroupOrder(((one, shared),))
    pinned = [
        ([Fraction(1, 2), -3], "-3*sqrt(2) - 5/2", (Fraction(1, 2), Fraction(-3))),
        ([3, -2], "-2*sqrt(2) + 1", (3, -2)),
        (["-2/3", "2/3"], "2/3*sqrt(2)", (Fraction(-2, 3), Fraction(2, 3))),
        ([0, 1], "1 + sqrt(2)", (0, 1)),
        ([0, 0], "0", (0, 0)),
    ]
    for coords, text, want in pinned:
        el = order.element(coords)
        assert (str(el), el.coords) == (text, want)
    two = GroupOrder(((one, shared), (SurdScalar.make([(Fraction(1, 2), 8)]),)))
    el = two.element([Fraction(1, 2), -1, Fraction(3, 4)])
    assert (str(el), el.coords) == ("-sqrt(2) - 1/2, 3/4*sqrt(2)", (Fraction(1, 2), Fraction(-1), Fraction(3, 4)))


@given(st.data(), st.lists(_RATIONALS, min_size=3, max_size=3), st.lists(_RATIONALS, min_size=3, max_size=3))
@settings(max_examples=150)
def test_integer_elements_match_fraction_coordinates(data, xs, ys):
    order = _order([(1, 1)], [(1, 2), (Fraction(1, 3), 3)])
    a = order.element([data.draw(_spelled(q)) for q in xs])
    again = order.element([data.draw(_spelled(q)) for q in xs])
    b = order.element([data.draw(_spelled(q)) for q in ys])
    assert a == again and hash(a) == hash(again)
    expected = [
        (a, xs), (b, ys), (-a, [-x for x in xs]),
        (a + b, [x + y for x, y in zip(xs, ys)]), (a - b, [x - y for x, y in zip(xs, ys)]),
    ]
    for el, qs in expected:
        assert el.coords == tuple(qs)
        assert el.den > 0 and gcd(el.den, *el.nums) == 1
        same = order.element(tuple(map(Fraction, qs)))
        assert el == same and hash(el) == hash(same)
        assert str(el) == ", ".join(map(str, order.block_values(tuple(qs))))
    assert compare(a, b) == _decimal_sign(order, [x - y for x, y in zip(xs, ys)])
    assert (a == b) == (xs == ys)


def test_perron_large_quotient_is_pinned():
    # weights 1 and sqrt(2)/1000: the first quotient is 707; the rows and
    # coefficients below are the output of the Fraction-refinement reduction
    order = _order([(1, 1), (Fraction(1, 1000), 2)])
    alphas = [order.element([10, -7071]), order.element([1, -1])]
    res = perron_positive_basis(order, alphas)
    assert res.change == ((19, -13435), (-9, 6364))
    assert res.coeffs == ((1, 1), (6355, 13416))


def test_perron_deep_reduction_is_pinned():
    # alpha = a - b*sqrt(2) for a Pell pair near 4e19: the reduction walks
    # the continued fraction of sqrt(2) down to values far below 2**-64
    # times their coefficients, where the 64-bit quotient hints miss; the
    # pinned output is that of the Fraction-refinement reduction
    a, b = 3, 2
    for _ in range(25):
        a, b = 3 * a + 4 * b, 2 * a + 3 * b
    alphas = [ORDER_R2.element([a, -b]), ORDER_R2.element([1, 0])]
    res = perron_positive_basis(ORDER_R2, alphas)
    assert res.change == (
        (40114893348711941777, -28365513113449345692),
        (-16616132878186749607, 11749380235262596085),
    )
    assert res.coeffs == ((1, 0), (11749380235262596085, 28365513113449345692))


def test_negative_perron_cap_is_rejected(monkeypatch):
    monkeypatch.setenv("UNIFORMIZER_MAX_PERRON_STEPS", "-5")
    with pytest.raises(InputError, match="UNIFORMIZER_MAX_PERRON_STEPS"):
        perron_positive_basis(ORDER_R2, [ORDER_R2.element([2, -1])])
    monkeypatch.setenv("UNIFORMIZER_MAX_PERRON_STEPS", "many")
    with pytest.raises(InputError, match="UNIFORMIZER_MAX_PERRON_STEPS"):
        perron_positive_basis(ORDER_R2, [ORDER_R2.element([2, -1])])


def test_perron_sweep_script_smoke(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "perron_sweep.py"
    spec = importlib.util.spec_from_file_location("perron_sweep", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--instances", "5"]) == 0
    assert "rank 2: 5/5 valid" in capsys.readouterr().out
    monkeypatch.setattr(sweep, "perron_is_valid", lambda *args: False)
    assert sweep.main(["--instances", "2"]) == 1


# ---------------------------------------------------------------------------
# perron_is_valid rejects a result that breaks any one clause


def _valid_rank3():
    order = _order([(1, 1), (1, 2), (1, 3)])
    alphas = [order.element([4, -1, -1]), order.element([5, -2, 1]), order.zero()]
    res = perron_positive_basis(order, alphas)
    assert perron_is_valid(order, alphas, res)
    return order, alphas, res


def _with_row(rows, i, row):
    return tuple(row if j == i else r for j, r in enumerate(rows))


def test_perron_is_valid_accepts_coordinate_alphas():
    order, alphas, res = _valid_rank3()
    coords = [[int(c) for c in a.coords] for a in alphas]
    assert perron_is_valid(order, coords, res)
    assert perron_is_valid(order, [[str(c) for c in row] for row in coords], res)
    # list rows in the change are read as their tuples
    listed = replace(res, change=tuple(map(list, res.change)))
    assert perron_is_valid(order, alphas, listed)


def test_perron_is_valid_rejects_each_broken_clause():
    order, alphas, res = _valid_rank3()
    change, coeffs = res.change, res.coeffs
    doubled = tuple(2 * c for c in change[0])
    negated = tuple(-c for c in change[0])
    bumped = tuple(c + 1 for c in coeffs[0])
    broken = {
        "change has a missing row": replace(res, change=change[:-1]),
        "change row too short": replace(res, change=_with_row(change, 0, change[0][:-1])),
        "determinant 2": replace(res, change=_with_row(change, 0, doubled)),
        "row of negative value": replace(res, change=_with_row(change, 0, negated)),
        "coefficient rows missing": replace(res, coeffs=coeffs[:-1]),
        "coefficient row too long": replace(res, coeffs=_with_row(coeffs, 0, coeffs[0] + (0,))),
        "negative coefficient": replace(
            res, coeffs=_with_row(coeffs, 2, (-1,) + coeffs[2][1:])
        ),
        "fractional coefficient": replace(
            res, coeffs=_with_row(coeffs, 0, (Fraction(coeffs[0][0]),) + coeffs[0][1:])
        ),
        "combination misses alpha": replace(res, coeffs=_with_row(coeffs, 0, bumped)),
    }
    for label, bad in broken.items():
        assert not perron_is_valid(order, alphas, bad), label
    # results that break only the determinant or only the positivity clause
    alpha = ORDER_R2.element([0, 2])
    for rows in (((2, 0), (0, 1)), ((-1, 0), (0, 1))):
        lone = PerronResult(((0, 2),), rows)
        assert not perron_is_valid(ORDER_R2, [alpha], lone), rows
    good = ((1, 0), (0, 1))
    assert perron_is_valid(ORDER_R2, [alpha], PerronResult(((0, 2),), good))
    # the alpha side: a different target, or one off the integer lattice
    assert not perron_is_valid(order, [alphas[1], alphas[0], alphas[2]], res)
    assert not perron_is_valid(order, alphas[:-1], res)
    *head, last = alphas[0].coords
    off_by_one = order.element(head + [last + 1])
    assert not perron_is_valid(order, [off_by_one] + alphas[1:], res)
    half = [[Fraction(1, 2), 0, 0]] + alphas[1:]
    assert not perron_is_valid(order, half, res)
    # a change entry that is not an int: int() would read 1/2 as 0, giving
    # determinant 1, and 2*(1, 1/2) + (0, 1) == (2, 2) holds
    rows = ((1, Fraction(1, 2)), (0, 1))
    frac = PerronResult(((2, 1),), rows)
    assert not perron_is_valid(ORDER_R2, [ORDER_R2.element([2, 2])], frac)


# ---------------------------------------------------------------------------
# the carried-interval reduction against the exact floor-quotient reduction


def _oracle_floor_ratio(block, num, den):
    """Largest q with q*den <= num: a root-bound hint confirmed by exact signs."""

    def fits(q):
        return block.sign([a - q * b for a, b in zip(num, den)]) >= 0

    roots, bits = block.roots, FILTER_BITS
    while True:
        est_den = sum(map(mul, den, roots))
        if est_den > 0:
            q = max(0, sum(map(mul, num, roots)) // est_den)
            if fits(q) and not fits(q + 1):
                return q
        bits *= 2
        roots = root_bounds(block.radicands, bits)


def _oracle_reduction(block, alphas):
    """(basis, coeffs, steps) of the reduction that decides every minimum
    and every quotient by exact signs; steps counts floor quotients."""
    r = len(block.weights)
    basis = [[int(i == j) for j in range(r)] for i in range(r)]
    vals = [list(row) for row in block.matrix]
    coeffs = [list(map(int, a)) for a in alphas]
    steps = 0
    while any(c < 0 for row in coeffs for c in row):
        m = 0
        for j in range(1, r):
            if block.sign([a - b for a, b in zip(vals[j], vals[m])]) < 0:
                m = j
        for j in range(r):
            if j == m:
                continue
            steps += 1
            q = _oracle_floor_ratio(block, vals[j], vals[m])
            basis[j] = [a - q * b for a, b in zip(basis[j], basis[m])]
            vals[j] = [a - q * b for a, b in zip(vals[j], vals[m])]
            for row in coeffs:
                row[m] += q * row[j]
    return basis, coeffs, steps


@st.composite
def reduction_instances(draw):
    rank = draw(st.integers(min_value=2, max_value=4))
    radicands = draw(st.permutations([1, 2, 3, 5, 7, 11]))[:rank]
    weights = []
    for d in radicands:
        terms = [(Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 5))), d)]
        if draw(st.booleans()):
            terms.append((Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3))), 1 if d != 1 else 2))
        weights.append(SurdScalar.make(terms))
    try:
        order = GroupOrder((tuple(weights),))
    except PreconditionError:
        assume(False)
    bound = draw(st.sampled_from([5, 50]))
    alphas = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        coords = [draw(st.integers(-bound, bound)) for _ in range(rank)]
        if order.element(coords).sign() < 0:
            coords = [-c for c in coords]
        alphas.append(coords)
    return order, alphas


# Reductions the drawn cases reach rarely.  The first two have basis entries
# of about 10**55 and 10**70, and their quotients need root bounds at 512
# bits (found by scripts/perron_sweep.py --coord-bound 50, where about 3 in
# 100 rank-3 and rank-4 draws refine).  In the third, the least 64-bit
# estimate belongs to a row that is not the minimal one (1 in 20,000 random
# rank 2-4 draws with coordinates up to 50).
_HARD_REDUCTIONS = [
    (_order([(Fraction(3, 2), 11), (Fraction(1, 4), 2), (6, 1)]),
     [[-1, -44, 26], [48, 41, -29], [5, 41, -2]]),
    (_order([(Fraction(5, 3), 1), (3, 2), (6, 5)]), [[28, -47, 25], [-15, 3, 31]]),
    (_order([(Fraction(7, 2), 7), (Fraction(2, 3), 3), (6, 1), (3, 5)]),
     [[39, -19, -18, 2], [22, 40, -14, -10]]),
]


def test_reduction_matches_floor_ratio_oracle(monkeypatch):
    """Same (change, coeffs) and the same smallest step cap as the exact
    reduction, with some cases refining past 64 bits."""
    bits_seen = {FILTER_BITS}

    def recording_root_bounds(radicands, bits=FILTER_BITS):
        bits_seen.add(bits)
        return root_bounds(radicands, bits)

    monkeypatch.setattr(vg, "root_bounds", recording_root_bounds)

    @given(reduction_instances())
    @example(_HARD_REDUCTIONS[0])
    @example(_HARD_REDUCTIONS[1])
    @example(_HARD_REDUCTIONS[2])
    @settings(max_examples=80, deadline=None)
    def check(inst):
        order, alphas = inst
        basis, coeffs, steps = _oracle_reduction(order._blocks[0], alphas)
        res = perron_positive_basis(order, alphas, max_steps=steps)
        assert res.change == tuple(map(tuple, basis))
        assert res.coeffs == tuple(map(tuple, coeffs))
        if steps:
            with pytest.raises(ResourceError, match="UNIFORMIZER_MAX_PERRON_STEPS"):
                perron_positive_basis(order, alphas, max_steps=steps - 1)

    check()
    assert max(bits_seen) > FILTER_BITS

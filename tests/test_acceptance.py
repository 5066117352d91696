"""Acceptance gates: randomized end-to-end guarantees at fixed sizes and budgets.

Each test pins one externally checkable property of the library at a stated
instance count, tolerance (always exact), and runtime budget.  The conftest
plugin prints a one-line verdict per criterion at the end of the run.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from uniformizer import jsonio
from uniformizer.completion import (
    kaplansky_normalize,
    uniformize_completion_algebraic,
    uniformize_immediate_simple,
    value_via_lvpol,
)
from uniformizer.errors import InsufficientPrecisionError
from uniformizer.expr import parse_element
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly, hasse_derivative, substitute
from uniformizer.series import TruncatedSeries, eval_poly_at_series, ratfun_to_series
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import compose, uniformize_abhyankar, verify
from uniformizer.valuation import MonomialPlace, value_of_poly, value_of_ratfun
from uniformizer.valuegroup import (
    GroupOrder,
    PerronResult,
    compare,
    perron_is_valid,
    perron_positive_basis,
)
from perron_oracle import brute_force_positive_basis

_RADICANDS = [1, 2, 3, 5, 7]


# -- shared generators -------------------------------------------------


def _weight_blocks(rng, sizes):
    """Random positive weights, independent within each block.

    Returns the raw (q, d) data alongside the constructed order so that
    oracles can reason about the weights without touching SurdScalar.
    """
    blocks_qd = []
    blocks = []
    for size in sizes:
        rads = rng.sample(_RADICANDS, size)
        qd = [(Fraction(rng.randint(1, 3), rng.randint(1, 3)), d) for d in rads]
        blocks_qd.append(qd)
        blocks.append(tuple(SurdScalar.make([t]) for t in qd))
    return blocks_qd, GroupOrder(tuple(blocks))


def _rand_poly(rng, base, nvars, max_terms, max_exp, height, allow_zero=False):
    if allow_zero and rng.random() < 0.05:
        return SparsePoly.zero(base, nvars)
    while True:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            terms.append((e, rng.randint(-height, height)))
        f = SparsePoly.make(base, nvars, terms)
        if not f.is_zero:
            return f


def _rand_scalar(rng, base):
    if base.is_rationals:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 10))
    return base.coerce(rng.randrange(base.characteristic))


# -- criterion 1: positive-basis reduction ------------------------------


def _nonneg_alpha(rng, order):
    coords = [rng.randint(-5, 5) for _ in range(order.ngens)]
    el = order.element(coords)
    if el.sign() < 0:
        el = order.element([-c for c in coords])
    return el


def test_criterion_1_perron_validity():
    """200 random reductions valid; 50 rank-2 runs cross-checked by search."""
    rng = random.Random(11001)
    t0 = time.monotonic()
    checked = 0
    for rank in (2, 3):
        for _ in range(100):
            _, order = _weight_blocks(rng, [rank])
            alphas = [_nonneg_alpha(rng, order) for _ in range(rng.randint(1, 4))]
            res = perron_positive_basis(order, alphas)
            assert perron_is_valid(order, alphas, res)
            checked += 1
    assert checked == 200

    crosschecked = 0
    attempts = 0
    while crosschecked < 50:
        attempts += 1
        assert attempts < 500
        _, order = _weight_blocks(rng, [2])
        alphas = [_nonneg_alpha(rng, order) for _ in range(rng.randint(1, 3))]
        res = perron_positive_basis(order, alphas)
        assert perron_is_valid(order, alphas, res)
        bound = max(abs(c) for row in res.change for c in row)
        if bound > 10:
            # the bounded search would be too coarse here; draw again
            continue
        rows = [[int(c) for c in a.coords] for a in alphas]
        hit = brute_force_positive_basis(order.blocks[0], rows, max(3, bound))
        assert hit is not None
        brows, bcoeffs = hit
        alt = PerronResult(
            coeffs=tuple(tuple(r) for r in bcoeffs),
            change=tuple(tuple(r) for r in brows),
        )
        assert perron_is_valid(order, alphas, alt)
        crosschecked += 1
    assert time.monotonic() - t0 < 30.0


# -- criterion 2: valuation axioms against a term-scan oracle -----------


def _surd_sign(coeffs):
    """Sign of sum(c_d * sqrt(d)) for at most two distinct radicands."""
    items = [(d, c) for d, c in coeffs.items() if c != 0]
    if not items:
        return 0
    if len(items) == 1:
        return 1 if items[0][1] > 0 else -1
    (d1, c1), (d2, c2) = items
    if c1 > 0 and c2 > 0:
        return 1
    if c1 < 0 and c2 < 0:
        return -1
    lead = c1 * c1 * d1 - c2 * c2 * d2
    if lead == 0:
        return 0
    return 1 if (lead > 0) == (c1 > 0) else -1


def _cmp_terms(blocks_qd, ea, eb):
    """Lexicographic-by-block comparison of two exponent vectors' values."""
    pos = 0
    for qd in blocks_qd:
        coeffs = {}
        for i, (q, d) in enumerate(qd):
            coeffs[d] = coeffs.get(d, Fraction(0)) + (ea[pos + i] - eb[pos + i]) * q
        s = _surd_sign(coeffs)
        if s:
            return s
        pos += len(qd)
    return 0


def _oracle_min_terms(blocks_qd, f):
    best = None
    for term in f.terms:
        if best is None:
            best = [term]
            continue
        s = _cmp_terms(blocks_qd, term[0], best[0][0])
        if s < 0:
            best = [term]
        elif s == 0:
            best.append(term)
    return best


def _check_against_oracle(blocks_qd, place, f):
    val, mins = value_of_poly(place, f)
    oracle = _oracle_min_terms(blocks_qd, f)
    assert set(mins) == set(oracle)
    rho = place.rho
    assert val.coords == tuple(Fraction(x) for x in oracle[0][0][:rho])
    return val


def test_criterion_2_valuation_axioms():
    """500 random pairs per characteristic: v(fg) = vf + vg, ultrametric, oracle."""
    rng = random.Random(11002)
    t0 = time.monotonic()
    for base in (QQ(), GF(5)):
        blocks_qd = place = None
        for case in range(500):
            if case % 25 == 0:
                rho = rng.randint(1, 2)
                sizes = [rho] if rho == 1 or rng.random() < 0.5 else [1, 1]
                blocks_qd, order = _weight_blocks(rng, sizes)
                place = MonomialPlace(base, order, tau=rng.randint(0, 1))
            nv = place.nvars
            f = _rand_poly(rng, base, nv, 6, 4, 9)
            g = _rand_poly(rng, base, nv, 6, 4, 9)
            vf = _check_against_oracle(blocks_qd, place, f)
            vg = _check_against_oracle(blocks_qd, place, g)
            vfg = _check_against_oracle(blocks_qd, place, f * g)
            assert vfg.coords == (vf + vg).coords
            h = f + g
            if not h.is_zero:
                vh = _check_against_oracle(blocks_qd, place, h)
                vmin = vf if compare(vf, vg) <= 0 else vg
                assert compare(vh, vmin) >= 0
    assert time.monotonic() - t0 < 30.0


# -- criterion 3: randomized uniformization soundness --------------------


def _ring_element(rng, place):
    base, nv = place.base, place.nvars
    num = _rand_poly(rng, base, nv, 8, 6, 10, allow_zero=True)
    if num.is_zero:
        return RationalFunction.from_poly(num)
    den = _rand_poly(rng, base, nv, 8, 6, 10)
    z = RationalFunction.from_poly(num) / RationalFunction.from_poly(den)
    if value_of_ratfun(place, z).sign() < 0:
        z = RationalFunction.from_poly(den) / RationalFunction.from_poly(num)
    return z


def test_criterion_3_uniformization_soundness():
    """100 random places and element lists: certificate built and verified."""
    rng = random.Random(11003)
    for case in range(100):
        base = QQ() if case % 2 == 0 else GF(5)
        rho = rng.randint(1, 3)
        sizes = [rho] if rho == 1 or rng.random() < 0.5 else [1, rho - 1]
        _, order = _weight_blocks(rng, sizes)
        place = MonomialPlace(base, order, tau=rng.randint(0, 2))
        zetas = [_ring_element(rng, place) for _ in range(rng.randint(1, 5))]
        t0 = time.monotonic()
        system = uniformize_abhyankar(place, zetas)
        report = verify(system)
        elapsed = time.monotonic() - t0
        assert report.passed, "\n".join(report.summary())
        assert elapsed < 10.0
        for z in zetas:
            assert any(e == z for e in system.etas)


# -- criterion 4: composition of relative and ground certificates --------


def _t_place(base):
    order = GroupOrder(((SurdScalar.rational(1),),))
    return MonomialPlace(base, order, tau=0, x_names=("t",))


def _split_min_poly(rng, base, k):
    """Monic degree-k polynomial in (t, X) with k distinct nonzero root residues."""
    if base.is_rationals:
        pool = [x for x in range(-6, 7) if x != 0]
    else:
        pool = list(range(1, base.characteristic))
    roots = rng.sample(pool, k)
    m = SparsePoly.const(base, 2, 1)
    for i, r in enumerate(roots):
        tail = [((j + 1, 0), rng.randint(-4, 4)) for j in range(rng.randint(0, 2))]
        if i == 0:
            tail.append(((1, 0), 1))  # give the main root a genuine t-tail
        factor = SparsePoly.make(base, 2, [((0, 1), 1), ((0, 0), -r)] + [(e, -c) for e, c in tail])
        m = m * factor
    return m, roots


def _immediate_outer(rng, base):
    """Certificate for a simple immediate extension, or None if sampling fails."""
    precision = 14
    tser = TruncatedSeries.monomial(base, 1, precision)
    for _ in range(40):
        exps = sorted(rng.sample(range(1, 11), rng.randint(2, 4)))
        data = [0] * (exps[-1] - exps[0] + 1)
        for e in exps:
            c = rng.randint(1, 4) if not base.is_rationals else rng.randint(-4, 4) or 1
            data[e - exps[0]] = c
        z = TruncatedSeries.make(base, exps[0], data, precision)
        if z.is_zero_to_precision:
            continue
        zetas = []
        for _ in range(rng.randint(1, 3)):
            for _ in range(60):
                num = _rand_poly(rng, base, 2, 4, 3, 5)
                den = _rand_poly(rng, base, 2, 4, 3, 5)
                sn = eval_poly_at_series(num, [tser, z], precision)
                sd = eval_poly_at_series(den, [tser, z], precision)
                if sn.is_zero_to_precision or sd.is_zero_to_precision:
                    continue
                if sn.known_order() < sd.known_order():
                    num, den = den, num
                zetas.append(RationalFunction.from_poly(num) / RationalFunction.from_poly(den))
                break
            else:
                break
        if not zetas:
            continue
        try:
            return uniformize_immediate_simple(z, zetas)
        except InsufficientPrecisionError:
            continue
    return None


def test_criterion_4_composition():
    """30 composed pairs: verified, diagonal residues concatenate exactly."""
    rng = random.Random(11004)
    for case in range(30):
        base = GF(5) if case % 2 == 0 else QQ()
        outer = None
        if case % 4 in (1, 3):
            outer = _immediate_outer(rng, base)
        if outer is None:
            m, roots = _split_min_poly(rng, base, rng.randint(2, 3))
            outer = uniformize_completion_algebraic(m, roots[0], 16)
        inner = uniformize_abhyankar(_t_place(base), list(outer.coeff_table))
        composed = compose(outer, inner)
        rep_in = verify(inner)
        rep_out = verify(outer)
        rep = verify(composed)
        assert rep_in.passed, "\n".join(rep_in.summary())
        assert rep_out.passed, "\n".join(rep_out.summary())
        assert rep.passed, "\n".join(rep.summary())
        assert rep.diagonal_entries == rep_in.diagonal_entries + rep_out.diagonal_entries


# -- criterion 5: exact Taylor expansion via divided derivatives ----------


def test_criterion_5_taylor_identity():
    """200 random (f, a, z) per characteristic, checked exactly."""
    rng = random.Random(11005)
    for base in (QQ(), GF(5)):
        for case in range(200):
            nvars = 1 if case % 2 == 0 else 2
            var = 0 if nvars == 1 else rng.randint(0, 1)
            f = _rand_poly(rng, base, nvars, 5, 8, 9)
            point = [_rand_scalar(rng, base) for _ in range(nvars)]
            z = _rand_scalar(rng, base)
            shifted = list(point)
            shifted[var] = base.add(shifted[var], z)
            lhs = f.evaluate(shifted)
            rhs = base.zero
            zpow = base.one
            for k in range(f.degree_in(var) + 1):
                rhs = base.add(rhs, base.mul(hasse_derivative(f, k, var).evaluate(point), zpow))
                zpow = base.mul(zpow, z)
            assert lhs == rhs


# -- criterion 6: value of f(z) through the approximation witness ---------


def _rf_order_at_zero(rf):
    on = min(e[0] for e, _ in rf.num.terms)
    od = min(e[0] for e, _ in rf.den.terms)
    return on - od


def test_criterion_6_lvpol_value_formula():
    """100 random (z, f): witness value equals the doubled-precision valuation."""
    rng = random.Random(11006)
    for base in (GF(5), QQ()):
        t_rf = RationalFunction.from_poly(SparsePoly.variable(base, 1, 0))
        for _ in range(50):
            while True:
                num = _rand_poly(rng, base, 1, 4, 4, 6)
                den = SparsePoly.make(
                    base,
                    1,
                    [((0,), 1)]
                    + [((j + 1,), rng.randint(-4, 4)) for j in range(rng.randint(1, 3))],
                )
                z_rf = RationalFunction.from_poly(num) / RationalFunction.from_poly(den)
                # a non-constant reduced denominator keeps the expansion infinite
                if not z_rf.den.is_constant:
                    break
            while True:
                f = _rand_poly(rng, base, 2, 6, 5, 7)
                if f.degree_in(1) < 1:
                    continue
                fz = RationalFunction.make(*substitute(f, [t_rf, z_rf]))
                if not fz.is_zero:
                    break
            exact = _rf_order_at_zero(fz)

            precision = 48
            while True:
                try:
                    witness = kaplansky_normalize([f], ratfun_to_series(z_rf, precision))
                    got = value_via_lvpol(witness, f)
                    break
                except InsufficientPrecisionError:
                    precision *= 2
                    assert precision <= 400
            doubled = 2 * precision
            direct = eval_poly_at_series(
                f,
                [TruncatedSeries.monomial(base, 1, doubled), ratfun_to_series(z_rf, doubled)],
                doubled,
            ).known_order()
            assert got == direct == exact


# -- criterion 7: full pipeline through the command-line interface --------


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run_cli(args, path):
    # the child finds the package in this checkout, whatever PYTHONPATH says
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "uniformizer"] + args + ["--input", str(path)],
        capture_output=True,
        env=env,
    )


def test_criterion_7_end_to_end_pipeline(tmp_path):
    """Composed certificate for F5(t, z), z^2 = 1 + t: verified, byte-stable, fast."""
    job = {
        "presentation": {
            "kind": "discrete_series",
            "base": {"field": "Fp", "p": 5},
            "uniformizer": "t",
            "precision": 16,
            "generator": {"name": "z", "min_poly": "X^2 - 1 - t", "residue": 1},
        },
        "zetas": ["z", "z + t", "(z - 1)/t"],
    }
    inp = tmp_path / "job.json"
    inp.write_text(json.dumps(job))

    t0 = time.monotonic()
    first = _run_cli(["discrete-uniformize"], inp)
    elapsed = time.monotonic() - t0
    second = _run_cli(["discrete-uniformize"], inp)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert elapsed < 5.0

    payload = json.loads(first.stdout)
    result = payload["result"]
    assert result["report"]["passed"] is True
    assert result["report"]["precision"] == 16
    assert result["system"]["coeff_table"] == []

    # the emitted certificate must survive independent re-verification
    vin = tmp_path / "verify.json"
    vin.write_text(json.dumps({"system": result["system"]}))
    third = _run_cli(["verify"], vin)
    assert third.returncode == 0, third.stderr.decode()
    assert json.loads(third.stdout)["result"]["report"]["passed"] is True

    # every requested element appears among the certified ones
    system = jsonio.parse_system(result["system"], "system")
    base = GF(5)
    for text in job["zetas"]:
        want = parse_element(text, base, ("t", "z"))
        assert any(e == want for e in system.etas)


# -- criterion 8: precision soundness of series arithmetic ----------------


def _series_pair(rng, base, want_unit=False):
    """The same underlying data cut at precision L and 2L above the offset."""
    offset = rng.randint(-3, 3)
    length = rng.randint(3, 8)
    data = [_rand_scalar(rng, base) for _ in range(2 * length)]
    if want_unit:
        while data[0] == 0:
            data[0] = _rand_scalar(rng, base)
    lo = TruncatedSeries.make(base, offset, data, offset + length)
    hi = TruncatedSeries.make(base, offset, data, offset + 2 * length)
    return lo, hi


def _assert_refines(lo, hi):
    assert hi.precision >= lo.precision
    start = min(lo.offset, hi.offset, 0)
    for k in range(start, lo.precision):
        assert lo.coefficient(k) == hi.coefficient(k)


def test_criterion_8_precision_soundness():
    """200 random operations recomputed at doubled input precision agree."""
    rng = random.Random(11008)
    ops = ["add", "sub", "mul", "div", "inverse", "pow", "shift", "truncate", "scale", "ratfun"]
    for case in range(200):
        base = QQ() if case % 2 == 0 else GF(5)
        op = ops[case % len(ops)]
        if op == "ratfun":
            num = _rand_poly(rng, base, 1, 4, 4, 6)
            den = _rand_poly(rng, base, 1, 4, 4, 6)
            f = RationalFunction.from_poly(num) / RationalFunction.from_poly(den)
            target = rng.randint(4, 10)
            _assert_refines(ratfun_to_series(f, target), ratfun_to_series(f, 2 * target))
            continue
        needs_unit = op in ("div", "inverse", "pow")
        a_lo, a_hi = _series_pair(rng, base, want_unit=needs_unit)
        b_lo, b_hi = _series_pair(rng, base, want_unit=needs_unit)
        if op == "add":
            r_lo, r_hi = a_lo + b_lo, a_hi + b_hi
        elif op == "sub":
            r_lo, r_hi = a_lo - b_lo, a_hi - b_hi
        elif op == "mul":
            r_lo, r_hi = a_lo * b_lo, a_hi * b_hi
        elif op == "div":
            r_lo, r_hi = a_lo / b_lo, a_hi / b_hi
        elif op == "inverse":
            r_lo, r_hi = a_lo.inverse(), a_hi.inverse()
        elif op == "pow":
            n = rng.randint(-3, 3)
            r_lo, r_hi = a_lo**n, a_hi**n
        elif op == "shift":
            k = rng.randint(-2, 3)
            r_lo, r_hi = a_lo.shift(k), a_hi.shift(k)
        elif op == "truncate":
            target = rng.randint(a_lo.offset, a_lo.precision)
            r_lo, r_hi = a_lo.truncate(target), a_hi.truncate(target)
        else:
            c = _rand_scalar(rng, base)
            r_lo, r_hi = a_lo.scale(c), a_hi.scale(c)
        _assert_refines(r_lo, r_hi)

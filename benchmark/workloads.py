"""The four seeded workloads: input generators, one operation, and the gate.

Each workload turns a seeded ``random.Random`` into an endless stream of
operations (``stream``) whose input design repeats every ``cycle``
operations, runs one operation through the public library or CLI (``run``),
and checks its outcome (``check``).  ``check`` returns the canonical
bytes of the outcome, which the runner hashes, or ``None`` when the
operation failed the gate.  Generators call the library only to pick
inputs (for example to orient a fraction into the valuation ring); they
never see the outputs that the gate later checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from uniformizer import cli
from uniformizer.completion import (
    DiscretePresentation,
    uniformize_discrete_rational,
    uniformize_completion_algebraic,
    uniformize_immediate_simple,
)
from uniformizer.errors import InsufficientPrecisionError
from uniformizer.fields import GF, QQ
from uniformizer.jsonio import parse_presentation, parse_system, system_to_json
from uniformizer.polyfield import RationalFunction, SparsePoly
from uniformizer.series import TruncatedSeries
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import compose, uniformize_abhyankar, verify
from uniformizer.valuation import (
    MonomialPlace,
    residue_of,
    value_of_poly,
    value_of_ratfun,
)
from uniformizer.valuegroup import GroupOrder, perron_is_valid, perron_positive_basis

SURVEY_RADICANDS = (1, 2, 3, 5, 7)
PERRON_RADICANDS = (1, 2, 3, 5, 7, 11)
PRECISION_CAP = 128


# ---------------------------------------------------------------------------
# shared random inputs


def random_poly(rng, base, nvars, max_terms, max_exp, height, min_terms=1):
    while True:
        terms = [
            (tuple(rng.randint(0, max_exp) for _ in range(nvars)), rng.randint(-height, height))
            for _ in range(rng.randint(min_terms, max_terms))
        ]
        f = SparsePoly.make(base, nvars, terms)
        if not f.is_zero:
            return f


def balanced(rng, cells):
    """Design cells forever, every cell once per cycle, in a seeded order per cycle."""
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield from order


def random_monomial_place(rng, base, rho, tau):
    sizes = [rho] if rho == 1 or rng.random() < 0.5 else [1, rho - 1]
    blocks = []
    for size in sizes:
        rads = rng.sample(SURVEY_RADICANDS, size)
        blocks.append(
            tuple(
                SurdScalar.make([(Fraction(rng.randint(1, 3), rng.randint(1, 3)), d)])
                for d in rads
            )
        )
    return MonomialPlace(base, GroupOrder(tuple(blocks)), tau=tau)


def ring_element(rng, place, max_terms, max_exp, height):
    """num/(c*x^mu) or (c*x^mu)/num, with mu chosen so the value is not negative.

    One side is always a monomial.  The library's gcd can run for minutes
    on two dense multivariate sides (its pseudo-remainder sequences swell),
    and a monomial side keeps the normal form cheap to reach.
    """
    base = place.base
    num = random_poly(rng, base, place.nvars, max_terms, max_exp, height)
    head = value_of_poly(place, num)[1][0][0][: place.rho]
    delta = [rng.randint(0, 2) for _ in range(place.rho)]
    mono = SparsePoly.const(base, place.nvars, rng.choice([c for c in range(1, 5) if c % (base.p or 5)]))
    if rng.random() < 0.5:
        mu = [h - d for h, d in zip(head, delta)]
        top = _shift(num, [max(-m, 0) for m in mu])
        return RationalFunction.make(top, _shift(mono, [max(m, 0) for m in mu]))
    mu = [h + d for h, d in zip(head, delta)]
    return RationalFunction.make(_shift(mono, mu), num)


def t_place(base):
    return MonomialPlace(base, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",))


def field(p):
    return QQ() if p == 0 else GF(p)


# ---------------------------------------------------------------------------
# the certificate gate, shared by both certificate workloads


def certificate_outputs(requested, system, report, full=True):
    """Canonical bytes of a certificate, or None if the gate rejects it.

    The gate asks for a passing report and every requested element among
    the certified etas; with ``full`` it also asks for an identical passing
    report after a JSON round trip.
    """
    if not report.passed:
        return None
    if not all(any(e == z for e in system.etas) for z in requested):
        return None
    doc = system_to_json(system)
    if full:
        again = verify(parse_system(doc, "system"))
        if not again.passed or again.as_dict() != report.as_dict():
            return None
    return json.dumps({"system": doc, "report": report.as_dict()}, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# monomial_survey


class MonomialSurvey:
    """uniformize_abhyankar then verify on a random monomial place."""

    params = {
        "loop": "closed",
        "clients": 1,
        "rank": "1-3",
        "blocks": "1 or 2",
        "radicands": list(SURVEY_RADICANDS),
        "tau": "0-2",
        "elements": "1-5",
        "max_terms": 8,
        "max_exp": 6,
        "height": 10,
        "fields": "Q, F5",
        "design": "every (rank, tau, elements, field) cell once per 90 operations",
    }
    cells = [(rho, tau, n, p) for rho in (1, 2, 3) for tau in (0, 1, 2) for n in range(1, 6) for p in (0, 5)]
    cycle = len(cells)

    def stream(self, rng):
        for rho, tau, n, p in balanced(rng, self.cells):
            place = random_monomial_place(rng, field(p), rho, tau)
            sizes = self.params["max_terms"], self.params["max_exp"], self.params["height"]
            yield place, [ring_element(rng, place, *sizes) for _ in range(n)]

    def run(self, op):
        place, zetas = op
        system = uniformize_abhyankar(place, zetas)
        return system, verify(system)

    def check(self, op, out, full):
        system, report = out
        return certificate_outputs(op[1], system, report, full)


# ---------------------------------------------------------------------------
# series_pipeline


def _dense_eval(f, zpoly, base, width):
    """Coefficients of f(t, zpoly(t)) below t^width; f lives in (t, X)."""
    p = base.p

    def mul(a, b):
        out = [0] * min(width, len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j in range(min(len(b), width - i)):
                    out[i + j] += x * b[j]
        return [c % p for c in out] if p else out

    total = [0] * width
    for (et, ex), c in f.terms:
        term = [0] * et + [c]
        for _ in range(ex):
            term = mul(term, zpoly)
        for k, v in enumerate(term[:width]):
            total[k] += v
    return [c % p for c in total] if p else total


def _geometric(base, a, head, count):
    """The first ``count`` coefficients of head(t) / (1 - a*t)."""
    out, acc = [], base.zero
    for k in range(count):
        acc = base.add(base.mul(acc, a), head[k] if k < len(head) else base.zero)
        out.append(acc)
    return out


def _order(coeffs):
    return next((k for k, c in enumerate(coeffs) if c), None)


@dataclass(frozen=True)
class SeriesOp:
    kind: str  # "presentation" or "immediate"
    base: object
    zetas: tuple
    precision: int
    pres: object = None  # DiscretePresentation
    z_data: tuple = ()  # (e, a, head) of the immediate generator t^e * head(t) / (1 - a*t)


class SeriesPipeline:
    """uniformize_discrete_rational (or an immediate extension) then verify."""

    params = {
        "loop": "closed",
        "clients": 1,
        "min_poly_degree": "2-3, distinct nonzero root residues, t-tails",
        "fields": "Q, F5, F7",
        "shapes": "quadratic or cubic presentation (quadratic only over Q), or an immediate extension",
        "precisions": [8, 12, 16],
        "elements": "1-3: a*z + b*t^i, a*z^2 + b*t*z, (z - r)/t, (a*z + b*t)/(1 + c*t*z)",
        "immediate_share": "9 in 24 operations",
        "precision_retry": f"max(needed, 2*precision) up to {PRECISION_CAP}",
        "design": "every (field, shape, element count) cell once per 24 operations; no cubic over Q",
    }
    # A cubic over Q takes 5-10 times as long as any other cell and its cost
    # swings with the drawn coefficients, so it would set ops_per_s alone.
    cells = [
        (p, shape, n)
        for p in (0, 5, 7)
        for shape in (2, 3, "immediate")
        for n in (1, 2, 3)
        if (p, shape) != (0, 3)
    ]
    cycle = len(cells)

    def stream(self, rng):
        for p, shape, n in balanced(rng, self.cells):
            precision = rng.choice((8, 12, 16))
            if shape == "immediate":
                yield self._immediate(rng, field(p), precision, n)
            else:
                yield self._presentation(rng, field(p), precision, shape, n)

    def _presentation(self, rng, base, precision, degree, n):
        """z^2 = r^2 + tail(t) or z^3 - z = tail(t) with distinct root residues.

        The tails keep the polynomial irreducible over K0(t): r^2 + c1*t + c2*t^3
        has odd degree, and z^3 - z = c1*t + c2*t^2 has no polynomial root.
        With a root in K0(t), z would be a polynomial in t, and an element
        whose series is a short polynomial leaves no separating truncation.
        """
        nonzero = [c for c in range(-4, 5) if c % (base.p or 11)]
        c1, c2 = rng.choice(nonzero), rng.randint(-4, 4)
        if degree == 2:
            r = rng.choice([c for c in range(1, 5) if c % (base.p or 11)])
            terms = [((0, 2), 1), ((0, 0), -r * r), ((1, 0), -c1), ((3, 0), -c2)]
        else:
            r = rng.choice((1, -1))
            terms = [((0, 3), 1), ((0, 1), -1), ((1, 0), -c1), ((2, 0), -c2)]
        m = SparsePoly.make(base, 2, terms)
        pres = DiscretePresentation(base, min_poly=m, residue=base.coerce(r))
        zetas = tuple(self._element(rng, base, r) for _ in range(n))
        return SeriesOp("presentation", base, zetas, precision, pres=pres)

    def _element(self, rng, base, r0):
        """A valuation-ring element of K0(t, z), linear or quadratic in z."""
        a, b, c = (base.coerce(rng.choice([k for k in range(-3, 4) if k % (base.p or 7)])) for _ in range(3))
        i = rng.randint(0, 2)
        shapes = (
            [((0, 1), a), ((i, 0), b)],  # a*z + b*t^i
            [((0, 2), a), ((1, 1), b)],  # a*z^2 + b*t*z
        )
        k = rng.randrange(4)
        if k < 2:
            return RationalFunction.from_poly(SparsePoly.make(base, 2, shapes[k]))
        if k == 2:  # (z - r0)/t
            num = SparsePoly.make(base, 2, [((0, 1), 1), ((0, 0), -r0)])
            return RationalFunction.make(num, SparsePoly.variable(base, 2, 0))
        # (a*z + b*t)/(1 + c*t*z): a unit denominator with an infinite series
        num = SparsePoly.make(base, 2, [((0, 1), a), ((1, 0), b)])
        den = SparsePoly.make(base, 2, [((0, 0), 1), ((1, 1), c)])
        return RationalFunction.make(num, den)

    def _immediate(self, rng, base, precision, n):
        """K0(t, z) with z = t^e * (c0 + c1*t + c2*t^2) / (1 - a*t), a series that never ends.

        A z that is a polynomial in t can leave no separating truncation
        below its last term, at any precision.
        """
        nonzero = [c for c in range(-4, 5) if c % (base.p or 11)]
        while True:
            e, a = rng.randint(1, 3), base.coerce(rng.choice(nonzero))
            head = [base.coerce(rng.choice(nonzero))] + [base.coerce(rng.randint(-4, 4)) for _ in range(2)]
            # a polynomial exactly when 1/a is a root of the head
            inv = base.inv(a)
            if base.add(head[0], base.add(base.mul(head[1], inv), base.mul(head[2], base.mul(inv, inv)))) != 0:
                break
        z_data = (e, a, tuple(head))
        zpoly = [0] * e + _geometric(base, a, head, precision)
        zetas = []
        while len(zetas) < n:
            num = random_poly(rng, base, 2, 4, 3, 5)
            den = random_poly(rng, base, 2, 4, 3, 5)
            orders = [_order(_dense_eval(f, zpoly, base, precision)) for f in (num, den)]
            if None in orders or max(orders) > precision // 2:
                continue
            if orders[0] < orders[1]:
                num, den = den, num
            zetas.append(RationalFunction.make(num, den))
        return SeriesOp("immediate", base, tuple(zetas), precision, z_data=z_data)

    def run(self, op):
        """(system, report, precision retries); reruns on InsufficientPrecisionError."""
        precision, retries = op.precision, 0
        while True:
            try:
                if op.kind == "presentation":
                    system = uniformize_discrete_rational(op.pres, op.zetas, precision=precision)
                else:
                    e, a, head = op.z_data
                    z = TruncatedSeries.make(op.base, e, _geometric(op.base, a, head, precision - e), precision)
                    outer = uniformize_immediate_simple(z, op.zetas)
                    inner = uniformize_abhyankar(t_place(op.base), list(outer.coeff_table))
                    system = compose(outer, inner)
                return system, verify(system), retries
            except InsufficientPrecisionError as e:
                nxt = max(e.needed or 0, 2 * precision)
                if nxt > PRECISION_CAP:
                    raise
                precision, retries = nxt, retries + 1

    def check(self, op, out, full):
        system, report, _ = out
        return certificate_outputs(op.zetas, system, report, full)


# ---------------------------------------------------------------------------
# place_queries


def _term_scan(place, f, digits=60):
    """Minimal x-exponent vector of a nonzero polynomial, by decimal block values.

    Independent weights make equal block values come only from equal
    x-exponent vectors, so a tie on the decimals is a tie on the integers.
    """
    rho = place.rho
    with localcontext() as ctx:
        ctx.prec = digits
        weights = [
            [sum((Decimal(q.numerator) / q.denominator * Decimal(d).sqrt() for q, d in w.terms), Decimal(0)) for w in block]
            for block in place.order.blocks
        ]
        best_key, best_head = None, None
        for e, _ in f.terms:
            head = e[:rho]
            key, at = [], 0
            for block in weights:
                key.append(sum((w * head[at + k] for k, w in enumerate(block)), Decimal(0)))
                at += len(block)
            if best_key is None or key < best_key:
                best_key, best_head = key, head
    return best_head


def _min_terms(place, f):
    head = _term_scan(place, f)
    return [(e, c) for e, c in f.terms if e[: place.rho] == head], head


@dataclass(frozen=True)
class QueryOp:
    kind: str  # "value", "residue" or "perron"
    place: object = None
    element: object = None
    order: object = None
    alphas: tuple = ()


class PlaceQueries:
    """One value, residue or Perron query on a fresh input."""

    params = {
        "loop": "closed",
        "clients": 1,
        "mix": "value_of_ratfun, residue_of on a unit, perron_positive_basis in turn",
        "rank": "1-3 for value and residue, 2-4 for perron",
        "tau": "0-2",
        "element_terms": "10-30 on one side of the fraction, a monomial on the other",
        "perron_radicands": list(PERRON_RADICANDS),
        "perron_alphas": "1-4, coordinates in [-5, 5], oriented positive",
        "fields": "Q, F5",
        "design": "every (kind, rank, field) cell once per 18 operations",
    }
    cells = [
        (kind, rank + (kind == "perron"), p)
        for kind in ("value", "residue", "perron")
        for rank in (1, 2, 3)
        for p in (0, 5)
    ]
    cycle = len(cells)

    def stream(self, rng):
        for cell in balanced(rng, self.cells):
            yield self.make_op(rng, *cell)

    def make_op(self, rng, kind, rank, p):
        if kind == "perron":
            rads = rng.sample(PERRON_RADICANDS, rank)
            order = GroupOrder(
                (tuple(SurdScalar.make([(Fraction(rng.randint(1, 6), rng.randint(1, 4)), d)]) for d in rads),)
            )
            alphas = []
            for _ in range(rng.randint(1, 4)):
                coords = [rng.randint(-5, 5) for _ in range(rank)]
                el = order.element(coords)
                alphas.append(order.element([-c for c in coords]) if el.sign() < 0 else el)
            return QueryOp("perron", order=order, alphas=tuple(alphas))
        base = field(p)
        place = random_monomial_place(rng, base, rank, rng.randint(0, 2))
        num = random_poly(rng, base, place.nvars, 30, 6, 20, min_terms=10)
        # a one-term side keeps the fraction's normal form cheap to reach:
        # the library's gcd can run for minutes on two dense 30-term sides
        if kind == "residue":
            mu = value_of_poly(place, num)[1][0][0][: place.rho]
        else:
            mu = [rng.randint(0, 6) for _ in range(place.rho)]
        mono = _shift(SparsePoly.const(base, place.nvars, rng.randint(1, 4)), mu)
        if kind == "value" and rng.random() < 0.5:
            num, mono = mono, num
        return QueryOp(kind, place=place, element=RationalFunction.make(num, mono))

    def run(self, op):
        if op.kind == "value":
            return value_of_ratfun(op.place, op.element)
        if op.kind == "residue":
            return residue_of(op.place, op.element)
        return perron_positive_basis(op.order, op.alphas)

    def check(self, op, out, full):
        if op.kind == "perron":
            if not perron_is_valid(op.order, op.alphas, out):
                return None
            return repr((out.change, out.coeffs)).encode()
        f = op.element
        (_, hn), (_, hd) = _min_terms(op.place, f.num), _min_terms(op.place, f.den)
        if op.kind == "value":
            if out.coords != tuple(Fraction(a - b) for a, b in zip(hn, hd)):
                return None
            return str(out).encode()
        rho, tau = op.place.rho, op.place.tau
        parts = [
            SparsePoly.make(op.place.base, tau, [(e[rho:], c) for e, c in _min_terms(op.place, g)[0]])
            for g in (f.num, f.den)
        ]
        if hn != hd or out.rep != RationalFunction.make(*parts):
            return None
        return str(out).encode()


def _shift(f, mu):
    return SparsePoly.make(
        f.base, f.nvars, [(tuple(a + (mu[k] if k < len(mu) else 0) for k, a in enumerate(e)), c) for e, c in f.terms]
    )


# ---------------------------------------------------------------------------
# cli_mix


def _poly_text(f, names):
    parts = []
    for e, c in f.terms:
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        parts.append(f"({c})*{mono}" if mono else f"({c})")
    return " + ".join(parts) or "0"


def _ratfun_text(f, names):
    return f"({_poly_text(f.num, names)})/({_poly_text(f.den, names)})"


def _place_doc(place):
    return {
        "kind": "monomial",
        "base": {"field": "Q"} if place.base.is_rationals else {"field": "Fp", "p": place.base.p},
        "x_weights": [
            [[{"q": str(q), "d": d} for q, d in w.terms] for w in block]
            for block in place.order.blocks
        ],
        "tau": place.tau,
    }


def _presentation_doc(p, min_poly, residue, precision):
    return {
        "kind": "discrete_series",
        "base": {"field": "Fp", "p": p} if p else {"field": "Q"},
        "uniformizer": "t",
        "precision": precision,
        "generator": {"name": "z", "min_poly": min_poly, "residue": residue},
    }


@dataclass(frozen=True)
class CliOp:
    command: str
    path: str
    code: int  # the documented exit code for this request
    expected: tuple  # (exit code, stdout) of the in-process handler on the same file


class CliMix:
    """One CLI request per operation over a seeded corpus, through ``cli.main`` in process.

    A process per request would time mostly interpreter start-up, which
    drifts with the machine's other tenants by more than any bound the
    benchmark can hold; the traced run times start-up in fresh processes.
    """

    params = {
        "loop": "closed",
        "clients": 1,
        "entry": "uniformizer.cli.main in process, stdout captured; fresh processes in the traced run",
        "corpus": "4 monomial and 4 series places, 6 requests each, over all 8 subcommands",
        "malformed": "4 requests: 2 outside the valuation ring (exit 2), 2 syntax/schema (exit 4)",
        "series_presentations": "3 quadratics over F5, F7, Q and a split cubic over F5, at precision 16",
        "order": "a fresh batch of 52 requests per cycle, shuffled by the seed",
    }

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env

    def requests(self, rng):
        """(command, request document, exit code) triples; certificates come from the library."""
        reqs = []
        series = [
            (5, "X^2 - 1 - t", 1),
            (7, "X^2 - 2 - t - t^2", 3),
            (0, "X^2 - X - 2 - t", 2),
            (5, "(X - 1 - t)*(X - 2 + t^2)*(X - 3)", 1),
        ]
        for k in range(4):
            base = field((0, 5)[k % 2])
            place = random_monomial_place(rng, base, rng.randint(1, 2), rng.randint(0, 1))
            pdoc = _place_doc(place)
            names = place.ambient_names
            elem = ring_element(rng, place, 5, 4, 9)
            unit_num = random_poly(rng, base, place.nvars, 4, 3, 9)
            mu = value_of_poly(place, unit_num)[1][0][0][: place.rho]
            unit_den = _shift(SparsePoly.const(base, place.nvars, rng.randint(1, 4)), mu)
            unit = RationalFunction.make(unit_num, unit_den)
            zetas = [ring_element(rng, place, 4, 3, 9) for _ in range(rng.randint(1, 3))]
            system = uniformize_abhyankar(place, zetas)
            reqs += [
                ("value", {"place": pdoc, "element": _ratfun_text(elem, names)}, 0),
                ("residue", {"place": pdoc, "element": _ratfun_text(unit, names)}, 0),
                ("report", {"place": pdoc}, 0),
                ("uniformize", {"place": pdoc, "zetas": [_ratfun_text(z, names) for z in zetas]}, 0),
                ("verify", {"system": system_to_json(system)}, 0),
            ]
            order = random_monomial_place(rng, base, rng.randint(1, 3), 0).order
            alphas = [[rng.randint(0, 4) for _ in range(order.ngens)] for _ in range(rng.randint(1, 3))]
            reqs.append(("perron", {"order": _place_doc(MonomialPlace(base, order))["x_weights"], "alphas": alphas}, 0))
        for p, mp, r in rng.sample(series, len(series)):
            pres_doc = _presentation_doc(p, mp, r, 16)
            elem = f"(z + {rng.randint(1, 4)}*t)/({rng.randint(1, 4)} + t*z)"
            reqs += [
                ("value", {"place": pres_doc, "element": elem}, 0),
                ("residue", {"place": pres_doc, "element": elem}, 0),
                ("report", {"place": pres_doc}, 0),
                ("discrete-uniformize", {"presentation": pres_doc, "zetas": ["z", elem]}, 0),
            ]
            base = field(p)
            pres, _ = parse_presentation(pres_doc, "presentation")
            full = uniformize_discrete_rational(pres, [RationalFunction.variable(base, 2, 1)], precision=16)
            reqs.append(("verify", {"system": system_to_json(full)}, 0))
            m = SparsePoly.make(base, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])
            outer = uniformize_completion_algebraic(m, 1, 16)
            inner = uniformize_abhyankar(t_place(base), list(outer.coeff_table))
            reqs.append(("compose", {"outer": system_to_json(outer), "inner": system_to_json(inner)}, 0))
        bad_place = _place_doc(random_monomial_place(rng, QQ(), 2, 0))
        reqs += [
            ("uniformize", {"place": bad_place, "zetas": ["x1", "1/x1"]}, 2),
            ("discrete-uniformize", {"presentation": pres_doc, "zetas": ["z", "1/t"]}, 2),
            ("value", {"place": bad_place, "element": "x1 +* 2"}, 4),
            ("residue", {"place": dict(bad_place, x_weights=[[{"q": "1", "d": 4}]]), "element": "x1"}, 4),
        ]
        return reqs

    cycle = 52  # requests per batch

    def stream(self, rng):
        """Fresh batches of request files, each with its expected outputs."""
        for batch in itertools.count():
            yield from self.make_ops(rng, batch)

    def make_ops(self, rng, batch):
        ops = []
        os.makedirs(self.workdir, exist_ok=True)
        for k, (command, doc, code) in enumerate(self.requests(rng)):
            path = os.path.join(self.workdir, f"{batch:04d}-{k:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            op = CliOp(command, path, code, "")
            ops.append(dataclasses.replace(op, expected=self.run(op)))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        """One request through ``uniformizer.cli.main`` in this process, stdout captured."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([op.command, "--input", op.path])
        return code, buf.getvalue()

    def run_process(self, op):
        """The same request as one ``python -m uniformizer`` process."""
        done = subprocess.run(
            [sys.executable, "-m", "uniformizer", op.command, "--input", op.path],
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            check=False,
        )
        return done.returncode, done.stdout.decode()

    def check(self, op, out, full):
        code, stdout = out
        if code != op.code or out != op.expected:
            return None
        return f"{op.command} {code}\n{stdout}".encode()


"""Random survey of uniformization certificates for monomial places.

Draws random places (rank, rational part, extra residue generators) and
random valuation-ring elements, builds the certificate for each batch, and
reports verification outcomes together with size statistics.  Useful for
spotting performance cliffs before they reach the test suite.
"""

import argparse
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from uniformizer.checker import verify
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import uniformize_abhyankar
from uniformizer.valuation import MonomialPlace, value_of_ratfun

RADICANDS = [1, 2, 3, 5, 7]


@dataclass
class SurveyConfig:
    batches: int = 50
    max_rank: int = 3
    max_tau: int = 2
    max_elements: int = 5
    max_terms: int = 8
    max_exp: int = 6
    height: int = 10
    p: int = 0
    seed: int = 1


def random_place(rng, cfg, base):
    rho = rng.randint(1, cfg.max_rank)
    sizes = [rho] if rho == 1 or rng.random() < 0.5 else [1, rho - 1]
    blocks = []
    for size in sizes:
        rads = rng.sample(RADICANDS, size)
        blocks.append(
            tuple(
                SurdScalar.make([(Fraction(rng.randint(1, 3), rng.randint(1, 3)), d)])
                for d in rads
            )
        )
    from uniformizer.valuegroup import GroupOrder

    return MonomialPlace(base, GroupOrder(tuple(blocks)), tau=rng.randint(0, cfg.max_tau))


def random_poly(rng, base, nvars, cfg):
    while True:
        terms = [
            (
                tuple(rng.randint(0, cfg.max_exp) for _ in range(nvars)),
                rng.randint(-cfg.height, cfg.height),
            )
            for _ in range(rng.randint(1, cfg.max_terms))
        ]
        f = SparsePoly.make(base, nvars, terms)
        if not f.is_zero:
            return f


def random_ring_element(rng, place, cfg):
    num = random_poly(rng, place.base, place.nvars, cfg)
    den = random_poly(rng, place.base, place.nvars, cfg)
    z = RationalFunction.from_poly(num) / RationalFunction.from_poly(den)
    if value_of_ratfun(place, z).sign() < 0:
        z = RationalFunction.from_poly(den) / RationalFunction.from_poly(num)
    return z


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batches", type=int, default=50)
    ap.add_argument("--p", type=int, default=0, help="characteristic, 0 for the rationals")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    cfg = SurveyConfig(batches=args.batches, p=args.p, seed=args.seed)

    base = QQ() if cfg.p == 0 else GF(cfg.p)
    rng = random.Random(cfg.seed)
    passed = 0
    worst = 0.0
    rows = 0
    for i in range(cfg.batches):
        place = random_place(rng, cfg, base)
        zetas = [random_ring_element(rng, place, cfg) for _ in range(rng.randint(1, cfg.max_elements))]
        t0 = time.perf_counter()
        system = uniformize_abhyankar(place, zetas)
        report = verify(system)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        rows += len(system.fs)
        if report.passed:
            passed += 1
        else:
            print(f"batch {i}: FAILED\n{report.summary()}")
    print(
        f"{passed}/{cfg.batches} certificates verified "
        f"({rows} rows total, worst batch {worst:.2f}s)"
    )
    return 0 if passed == cfg.batches else 1


if __name__ == "__main__":
    raise SystemExit(main())

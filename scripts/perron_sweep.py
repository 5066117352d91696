"""Randomized sweep over positive-basis reductions.

Samples ordered groups with surd weights and integer value vectors, runs
the reduction, checks the validity contract, and prints basis-entry and
timing statistics per rank.  Exits 1 when any reduction fails the
contract, 0 otherwise.

    PYTHONPATH=src python scripts/perron_sweep.py --instances 200
"""

import argparse
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from uniformizer.surd import SurdScalar
from uniformizer.valuegroup import GroupOrder, perron_is_valid, perron_positive_basis

RADICANDS = [1, 2, 3, 5, 7, 11]


@dataclass
class SweepConfig:
    instances: int = 200
    ranks: tuple = (2, 3, 4)
    coord_bound: int = 5
    seed: int = 0


def random_order(rng, rank):
    rads = rng.sample(RADICANDS, rank)
    weights = tuple(
        SurdScalar.make([(Fraction(rng.randint(1, 6), rng.randint(1, 4)), d)]) for d in rads
    )
    return GroupOrder((weights,))


def random_alpha(rng, order, bound):
    coords = [rng.randint(-bound, bound) for _ in range(order.ngens)]
    el = order.element(coords)
    return order.element([-c for c in coords]) if el.sign() < 0 else el


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--instances", type=int, default=200)
    ap.add_argument("--coord-bound", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    cfg = SweepConfig(instances=args.instances, coord_bound=args.coord_bound, seed=args.seed)

    rng = random.Random(cfg.seed)
    failed = 0
    for rank in cfg.ranks:
        entries = []
        elapsed = 0.0
        valid = 0
        for _ in range(cfg.instances):
            order = random_order(rng, rank)
            alphas = [random_alpha(rng, order, cfg.coord_bound) for _ in range(rng.randint(1, 4))]
            t0 = time.perf_counter()
            res = perron_positive_basis(order, alphas)
            elapsed += time.perf_counter() - t0
            valid += perron_is_valid(order, alphas, res)
            entries.append(max(abs(c) for row in res.change for c in row))
        entries.sort()
        print(
            f"rank {rank}: {valid}/{cfg.instances} valid, "
            f"max basis entry median={entries[len(entries) // 2]} worst={entries[-1]}, "
            f"total {elapsed:.2f}s"
        )
        failed += cfg.instances - valid
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

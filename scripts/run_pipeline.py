"""Worked pipeline: certify elements of F(t, z) against a t-adic series place.

Builds the ground certificate for a field given by one algebraic generator
over K0(t), prints the verification summary, and optionally dumps the full
JSON certificate.  The default instance is F5(t, z) with z^2 = 1 + t and
z |-> 1, certifying z, z + t and (z - 1)/t.
"""

import argparse
import json

from uniformizer.checker import verify
from uniformizer.completion import uniformize_discrete_rational
from uniformizer.expr import parse_element, parse_polynomial
from uniformizer.fields import GF, QQ
from uniformizer.jsonio import system_to_json
from uniformizer.series import DiscretePresentation


def run(args):
    """The ground certificate and its report for the parsed command-line flags."""
    base = QQ() if args.p == 0 else GF(args.p)
    pres = DiscretePresentation(
        base,
        min_poly=parse_polynomial(args.min_poly, base, ("t", "X")),
        residue=base.coerce(args.residue),
    )
    texts = args.zeta or ["z", "z + t", "(z - 1)/t"]
    zetas = [parse_element(text, base, ("t", "z")) for text in texts]
    system = uniformize_discrete_rational(pres, zetas, precision=args.precision)
    report = verify(system)
    return system, report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=5, help="characteristic, 0 for the rationals")
    ap.add_argument("--min-poly", default="X^2 - 1 - t")
    ap.add_argument("--residue", type=int, default=1)
    ap.add_argument("--zeta", action="append", default=None, help="element to certify (repeatable)")
    ap.add_argument("--precision", type=int, default=16)
    ap.add_argument("--json", action="store_true", help="print the full certificate")
    args = ap.parse_args(argv)

    system, report = run(args)

    print(f"rows: {len(system.fs)}  etas: {len(system.etas)}  T-vars: {len(system.tvars)}")
    print(report.summary())
    if args.json:
        print(json.dumps(system_to_json(system), indent=2, sort_keys=True))
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

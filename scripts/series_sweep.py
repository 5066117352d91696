"""Precision sweep over the series layer of a discrete presentation.

For each field and precision n it times three steps on the presentation
MIN_POLY = X^2 - 1 - t with the residue root RESIDUE = 1:

- realize: Hensel-lift the generator z to precision n;
- value: the value of ELEMENT = z/(1 - t*z) at that place;
- verify: check the certificate for ZETAS = z, (z - 1)/t at precision n
  (the certificate is built first, untimed).

It checks that m(t, z) = O(t^n), and that every result at precision n
refines the one at the previous precision (criterion 8): z and the
element's series agree on every exponent the coarser run knows, and the
value and the verdict are the same.  Prints one row per (field,
precision) and exits 1 when a check fails, 0 otherwise.

    PYTHONPATH=src python scripts/series_sweep.py --fields 0,5 --precisions 64,128,256,512
    PYTHONPATH=src python scripts/series_sweep.py --quick
"""

import argparse
import time
from dataclasses import dataclass

from uniformizer.checker import verify
from uniformizer.completion import uniformize_discrete_rational
from uniformizer.expr import parse_element
from uniformizer.fields import GF, QQ
from uniformizer.series import (
    DiscretePresentation,
    TruncatedSeries,
    eval_poly_at_series,
    realize_presentation,
    series_element_value,
)

PRECISIONS = (64, 128, 256, 512, 1024, 2048)
QUICK_PRECISIONS = (64, 128)
MIN_POLY = "X^2 - 1 - t"
RESIDUE = 1
ELEMENT = "z/(1 - t*z)"
ZETAS = ("z", "(z - 1)/t")


@dataclass
class Cell:
    z: TruncatedSeries
    element: TruncatedSeries
    value: int
    passed: bool
    seconds: tuple


def refines(coarse: TruncatedSeries, fine: TruncatedSeries) -> bool:
    """fine knows at least as much as coarse and agrees with it there."""
    return fine.precision >= coarse.precision and (coarse - fine).is_zero_to_precision


def run_cell(pres, element, zetas, n) -> Cell:
    t0 = time.perf_counter()
    place = realize_presentation(pres, n)
    t1 = time.perf_counter()
    value = series_element_value(place, element)
    t2 = time.perf_counter()
    system = uniformize_discrete_rational(pres, zetas, precision=n)
    t3 = time.perf_counter()
    report = verify(system)
    t4 = time.perf_counter()
    seconds = (t1 - t0, t2 - t1, t4 - t3)
    return Cell(place.gen_series[0], place.make_context().ambient(element), value, report.passed, seconds)


def sweep_field(p, precisions):
    """Print one row per precision; return the number of failed checks."""
    base = QQ() if p == 0 else GF(p)
    m = parse_element(MIN_POLY, base, ("t", "X")).num
    pres = DiscretePresentation(base, min_poly=m, residue=base.coerce(RESIDUE))
    element = parse_element(ELEMENT, base, ("t", "z"))
    zetas = [parse_element(text, base, ("t", "z")) for text in ZETAS]
    failed = 0
    previous = None
    for n in precisions:
        cell = run_cell(pres, element, zetas, n)
        t = TruncatedSeries.monomial(base, 1, n)
        residual = eval_poly_at_series(m, [t, cell.z], n)
        problems = []
        if not residual.is_zero_to_precision or residual.precision < n:
            problems.append(f"m(t, z) is not O(t^{n})")
        if not cell.passed:
            problems.append("verify fails")
        if previous is not None:
            if not refines(previous.z, cell.z):
                problems.append("z does not refine the coarser run")
            if not refines(previous.element, cell.element) or previous.value != cell.value:
                problems.append("the element does not refine the coarser run")
            if previous.passed != cell.passed:
                problems.append("the verdict changed")
        realize_s, value_s, verify_s = cell.seconds
        print(
            f"{base!s:>4} {n:>6} {realize_s:>10.3f} {value_s:>10.3f} {verify_s:>10.3f}  "
            + ("ok" if not problems else "FAIL: " + "; ".join(problems)),
            flush=True,
        )
        failed += len(problems)
        previous = cell
    return failed


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--fields", default="0,5", help="characteristics, comma-separated; 0 is Q")
    ap.add_argument("--precisions", default=",".join(map(str, PRECISIONS)))
    ap.add_argument("--quick", action="store_true", help=f"precisions {QUICK_PRECISIONS} only")
    args = ap.parse_args(argv)

    precisions = tuple(int(n) for n in args.precisions.split(","))
    if args.quick:
        precisions = QUICK_PRECISIONS
    print(f"{'K0':>4} {'prec':>6} {'realize_s':>10} {'value_s':>10} {'verify_s':>10}  checks")
    failed = 0
    for p in (int(x) for x in args.fields.split(",")):
        failed += sweep_field(p, precisions)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

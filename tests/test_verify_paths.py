"""verify on a monomial place skips normal forms; the report must not notice.

The reference context normalises every value with ``RationalFunction.make``
before any check reads it.  Both must give the same report, byte for byte, on
certificates drawn as ``scripts/certificate_survey.py`` draws them and on
four mutants of each: a changed row coefficient, a vanishing diagonal
entry, a diagonal entry of positive value and a last row X_n * f_n.  No
workload's rows have degree above 1 in an argument with more than one
term; the last mutant has degree 2 in eta_n, so ``substitute`` expands
that argument's factors num^k * den^(2 - k) for k = 0, 1 and 2.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from uniformizer import valuation
from uniformizer.checker import verify
from uniformizer.fields import GF, QQ
from uniformizer.polyfield import RationalFunction, SparsePoly, hasse_derivative, substitute
from uniformizer.uniformize import uniformize_abhyankar
from uniformizer.valuation import MonomialContext, _Quotient, value_of_ratfun
from frozen_copy import replace

PATH = Path(__file__).resolve().parents[1] / "scripts" / "certificate_survey.py"
SPEC = importlib.util.spec_from_file_location("certificate_survey", PATH)
survey = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(survey)


class NormalisingContext(MonomialContext):
    """Every value in canonical form, compared structurally."""

    def eval_poly(self, f, args):
        return RationalFunction.make(*substitute(f, args))

    def eval_row(self, f, args, var):
        return tuple(RationalFunction.make(*q) for q in super().eval_row(f, args, var))

    def eval_ratfun(self, f, args):
        return self.eval_poly(f.num, args) / self.eval_poly(f.den, args)

    def equal(self, a, b):
        return a == b


def _reference(system):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(valuation, "MonomialContext", NormalisingContext)
        return verify(system)


def _verify_reading_no_row_view(system):
    """verify, with ``SparsePoly.terms`` made to fail on the system's rows:
    the checks read the rows' integers, never their scalar view."""
    rows = {id(f) for f in system.fs}
    view = SparsePoly.terms.fget

    def guarded(f):
        if id(f) in rows:
            pytest.fail("verify read the scalar view of a row")
        return view(f)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SparsePoly, "terms", property(guarded))
        return verify(system)


def _certificates(p, count, seed):
    cfg = survey.SurveyConfig(max_elements=3, max_terms=5, max_exp=4, p=p)
    base = QQ() if p == 0 else GF(p)
    rng = random.Random(seed)
    for _ in range(count):
        place = survey.random_place(rng, cfg, base)
        zetas = [survey.random_ring_element(rng, place, cfg) for _ in range(rng.randint(1, cfg.max_elements))]
        yield uniformize_abhyankar(place, zetas)


def _row_with(system, i, row):
    return replace(system, fs=system.fs[:i] + (row,) + system.fs[i + 1:])


def _mutants(system):
    """(name, mutant) for a row coefficient changed, a diagonal entry made 0,
    a diagonal entry of positive value and the row times its own X, each on
    the last row."""
    i, f = system.n - 1, system.fs[-1]
    s, base = system.s, f.base
    e, _ = f.ints[-1]
    bumped = f + SparsePoly.make(base, f.nvars, [(e, 1)])
    if bumped.is_zero or bumped == f:
        bumped = f + SparsePoly.const(base, f.nvars, 1)
    no_xi = SparsePoly._canon(base, f.nvars, {e: c for e, c in f.ints if not e[s + i]}, f.denom)
    t1 = SparsePoly.variable(base, f.nvars, 0)  # an x-monomial: positive value
    xi = SparsePoly.variable(base, f.nvars, s + i)
    return [("coefficient", _row_with(system, i, bumped)),
            ("vanishing diagonal", _row_with(system, i, no_xi)),
            ("positive diagonal", _row_with(system, i, t1 * f)),
            ("squared", _row_with(system, i, xi * f))]


def _residual_value(system, mutant):
    """The value of the mutant's last row at (T, eta), read from its
    difference with the system's row, which vanishes there."""
    assert not system.coeff_table
    diff = mutant.fs[-1] - system.fs[-1]
    return value_of_ratfun(system.place, RationalFunction.make(*substitute(diff, system.tvars + system.etas)))


def _multi_term(rf):
    return len(rf.num.ints) > 1 or len(rf.den.ints) > 1


@pytest.mark.parametrize("p, seed", [(0, 1), (0, 2), (5, 3), (7, 4)])
def test_reports_equal_the_normalising_reference(p, seed):
    squared_multi_term = 0
    for system in _certificates(p, 6, seed):
        report = _verify_reading_no_row_view(system)
        assert report.passed
        assert report.as_dict() == _reference(system).as_dict()
        for name, mutant in _mutants(system):
            got = verify(mutant)
            assert got.as_dict() == _reference(mutant).as_dict(), name
            if name == "coefficient":
                assert got.u2.detail == f"row {system.n} does not vanish: value {_residual_value(system, mutant)}"
            elif name == "vanishing diagonal":
                assert got.u3.detail == f"diagonal product vanishes: entry {system.n} is 0"
            elif name == "positive diagonal":
                # t1 times a unit
                t1 = value_of_ratfun(system.place, system.tvars[0])
                assert got.u2.passed
                assert got.u3.detail == f"diagonal product has nonzero value: entry {system.n} has value {t1}"
            else:
                # X_n * f_n still vanishes at eta_n
                assert got.u2.passed
                squared_multi_term += _multi_term(system.etas[-1])
    # the degree-2 expansion of a multi-term argument ran in every case
    assert squared_multi_term


@pytest.mark.parametrize("p, seed", [(0, 5), (5, 6), (7, 7)])
def test_monomial_eval_row_is_two_substitutions(p, seed):
    """A row and its diagonal partial, each substituted on its own."""
    for system in _certificates(p, 6, seed):
        assert not system.coeff_table
        ctx = system.place.make_context()
        args = [ctx.ambient(rf) for rf in system.tvars + system.etas]
        for i, f in enumerate(system.fs):
            var = system.s + i
            want = (_Quotient(*substitute(f, args)), _Quotient(*substitute(hasse_derivative(f, 1, var), args)))
            assert ctx.eval_row(f, args, var) == want

"""The benchmark's own checks: the gate rejects tampered certificates, and traced counts repeat.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q benchmark/tests
"""

import dataclasses
import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import tracing  # noqa: E402
import workloads  # noqa: E402
from uniformizer import valuation  # noqa: E402
from uniformizer.polyfield import SparsePoly  # noqa: E402
from uniformizer.uniformize import verify  # noqa: E402


def first_ops(wl, seed, count):
    return list(itertools.islice(wl.stream(random.Random(seed)), count))


def bump_one_coefficient(system):
    """The same certificate with the first coefficient of its first row plus one."""
    row = system.fs[0]
    (exps, c), rest = row.terms[0], row.terms[1:]
    bumped = SparsePoly.make(row.base, row.nvars, ((exps, row.base.add(c, row.base.one)),) + rest)
    return dataclasses.replace(system, fs=(bumped,) + system.fs[1:])


def assert_gate_rejects_mutation(wl, op, out):
    system, report = out[0], out[1]
    assert wl.check(op, out, True) is not None, "the untouched certificate must pass"
    bad = bump_one_coefficient(system)
    # the tampered certificate with its own report, and with the original passing report
    for tampered in ((bad, verify(bad)) + out[2:], (bad, report) + out[2:]):
        assert wl.check(op, tampered, True) is None


def test_gate_rejects_mutated_survey_certificate():
    wl = workloads.MonomialSurvey()
    op = first_ops(wl, 7, 1)[0]
    assert_gate_rejects_mutation(wl, op, wl.run(op))


def test_gate_rejects_mutated_series_certificate():
    wl = workloads.SeriesPipeline()
    op = next(op for op in first_ops(wl, 7, 27) if op.kind == "presentation")
    assert_gate_rejects_mutation(wl, op, wl.run(op))


def traced_counts(wl, ops):
    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    try:
        for i, op in enumerate(ops):
            tracer.run_op(i, wl.run, op)
    finally:
        tracer.uninstall()
    return tracer.exact_counts()


def test_traced_counts_repeat_exactly():
    original = valuation.value_of_poly
    for wl, count in ((workloads.MonomialSurvey(), 6), (workloads.SeriesPipeline(), 4)):
        ops = first_ops(wl, 3, count)
        first, second = traced_counts(wl, ops), traced_counts(wl, ops)
        assert first == second
        assert first["valuation.value_of_poly"] > 0 and first["op"] == count
    assert valuation.value_of_poly is original, "uninstall must restore the library"

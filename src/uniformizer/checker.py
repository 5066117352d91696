"""Triangular systems witnessing local uniformization, and their checker.

A triangular system over a valued field records a transcendence set T, a
list of algebraic elements eta with one witness polynomial f_i per eta,
and optionally a table of coefficient-field elements that the f_i may use
through dedicated c-variables.  The polynomial ring of the f_i (and of the
generation witnesses) is laid out as

    variables  0..s-1        the T elements,   rendered t1..ts
    variables  s..s+n-1      the eta slots,    rendered X1..Xn
    variables  s+n..s+n+nc-1 coefficient refs, rendered c1..cnc

``verify`` checks, over the system's place:
  (U1)  f_i uses only X_1..X_i among the X variables,
  (U2)  f_i(T, eta_1..eta_i) = 0,
  (U3)  the product of the diagonal partials  d f_i / d X_i  evaluated at
        (T, eta) is a unit: value zero and nonzero residue,
plus a generation check: every ambient generator of the field must equal
its recorded witness expression in the system variables (or literally be
one of the T or eta elements).

U3 is read from the diagonal entries, each valued once: the product
vanishes iff an entry does, its value is the sum of the entry values, and
when that sum is zero its residue is the product of the entry residues.
The product itself is never formed.

Over a monomial place all checks are exact rational-function identities;
over a truncated-series place identities hold to the tracked precision,
which the report carries.  Each place kind supplies a verification
context through ``make_context()``, with this contract:
  ambient(rf)
        embed an ambient element; ``verify`` maps each coefficient-field
        element and each generator into the ambient field first;
  eval_poly(f, args), eval_ratfun(f, args), is_zero(a), equal(a, b)
        evaluate a row or a witness, test for zero, and test two elements
        for equality; eval_ratfun raises ZeroDivisionError when the
        denominator vanishes, and eval_poly's result need only support
        is_zero and valuation;
  valuation(a)
        (value, residue) of a nonzero element, the residue None unless the
        value is zero; values add, and compare with the attribute ``zero``;
  residue_text(residues)
        render the product of residues returned by valuation;
and the attribute ``precision`` (None on a monomial place).  Elements
support ``-`` and ``/`` directly.

The checker imports no construction code (``uniformize``, ``completion``):
it reads a place only through the place's ``make_context()``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotInValuationRingError, PreconditionError
from .fields import Frozen
from .polyfield import RationalFunction, SparsePoly, hasse_derivative


# the package's one dataclass: benchmark/tests/test_gate.py copies it with dataclasses.replace
@dataclass(frozen=True)
class TriangularSystem:
    place: object
    tvars: tuple[RationalFunction, ...]
    etas: tuple[RationalFunction, ...]
    fs: tuple[SparsePoly, ...]
    coeff_field_names: tuple[str, ...] = ()
    coeff_table: tuple[RationalFunction, ...] = ()
    zeta_indices: tuple[int, ...] = ()
    witnesses: tuple[tuple[str, RationalFunction], ...] = ()

    def __post_init__(self):
        s, n, nc = len(self.tvars), len(self.etas), len(self.coeff_table)
        if len(self.fs) != n:
            raise PreconditionError("need exactly one row polynomial per eta")
        width = s + n + nc
        for i, f in enumerate(self.fs):
            if f.nvars != width:
                raise PreconditionError(
                    f"row {i + 1} has {f.nvars} variables, expected {width}"
                )
        ambient = set(self.place.ambient_names)
        seen = set()
        for name, w in self.witnesses:
            if name not in ambient:
                raise PreconditionError(f"witness for unknown generator {name!r}")
            if name in seen:
                raise PreconditionError(f"more than one witness for generator {name!r}")
            seen.add(name)
            if w.nvars != width:
                raise PreconditionError(f"witness for {name!r} has the wrong width")
        for idx in self.zeta_indices:
            if not 0 <= idx < n:
                raise PreconditionError(f"requested index {idx} out of range")
        if self.coeff_table and not self.coeff_field_names:
            raise PreconditionError("coefficient table needs coefficient field names")
        for c in self.coeff_table:
            if c.nvars != len(self.coeff_field_names):
                raise PreconditionError("coefficient entry has the wrong width")

    @property
    def s(self) -> int:
        return len(self.tvars)

    @property
    def n(self) -> int:
        return len(self.etas)

    def var_names(self) -> list[str]:
        return layout_names(self.s, self.n, len(self.coeff_table))


def layout_names(s: int, n: int, nc: int) -> list[str]:
    """The names t1..ts, X1..Xn, c1..cnc of the variable layout above."""
    return (
        [f"t{i + 1}" for i in range(s)]
        + [f"X{j + 1}" for j in range(n)]
        + [f"c{k + 1}" for k in range(nc)]
    )


class CheckResult(Frozen):
    __slots__ = ("passed", "detail")
    _defaults = ("",)


class VerificationReport(Frozen):
    __slots__ = (
        "u1",
        "u2",
        "u3",
        "generation",
        "diagonal_value",
        "diagonal_residue",
        "diagonal_entries",
        "precision",
    )
    _defaults = (None,)

    @property
    def passed(self) -> bool:
        return all(
            c.passed for c in (self.u1, self.u2, self.u3, self.generation)
        )

    def as_dict(self) -> dict:
        def one(c: CheckResult) -> dict:
            return {"passed": c.passed, "detail": c.detail}

        return {
            "passed": self.passed,
            "u1": one(self.u1),
            "u2": one(self.u2),
            "u3": one(self.u3),
            "generation": one(self.generation),
            "diagonal": {
                "value": self.diagonal_value,
                "residue": self.diagonal_residue,
                "entries": list(self.diagonal_entries),
            },
            "precision": self.precision,
        }

    def summary(self) -> str:
        rows = [
            ("U1 triangular shape", self.u1),
            ("U2 rows vanish", self.u2),
            ("U3 unit Jacobian", self.u3),
            ("generation", self.generation),
        ]
        lines = []
        for label, c in rows:
            mark = "pass" if c.passed else "FAIL"
            lines.append(f"{label}: {mark}" + (f" ({c.detail})" if c.detail else ""))
        if self.precision is not None:
            lines.append(f"checked at series precision {self.precision}")
        return "\n".join(lines)


def verify(system: TriangularSystem) -> VerificationReport:
    """Check (U1)-(U3) and generation; return a full report.

    Raises NotInValuationRingError if a listed element fails membership in
    the valuation ring, since such a system is malformed rather than merely
    failing a check, and PreconditionError if a coefficient field name is
    not an ambient generator.
    """
    place = system.place
    ctx = place.make_context()
    s, n = system.s, system.n
    names, nvars = place.ambient_names, place.nvars
    for name in system.coeff_field_names:
        if name not in names:
            raise PreconditionError(
                f"coefficient field name {name!r} is missing from the ambient field"
            )
    idx = [names.index(name) for name in system.coeff_field_names]

    ts = [ctx.ambient(rf) for rf in system.tvars]
    xs = [ctx.ambient(rf) for rf in system.etas]
    cs = [ctx.ambient(rf.map_vars(idx, nvars)) for rf in system.coeff_table]
    for kind, elems in (("T", ts), ("eta", xs), ("coefficient", cs)):
        for i, el in enumerate(elems):
            if not ctx.is_zero(el) and ctx.valuation(el)[0] < ctx.zero:
                raise NotInValuationRingError(
                    f"{kind} element {i + 1} lies outside the valuation ring"
                )
    args = ts + xs + cs

    # U1: row i may only use X_1..X_i
    u1 = CheckResult(True)
    for i, f in enumerate(system.fs):
        bad = next((j for e, _ in f.ints for j in range(i + 1, n) if e[s + j] > 0), None)
        if bad is not None:
            u1 = CheckResult(False, f"row {i + 1} uses X{bad + 1}")
            break

    # U2: every row vanishes at (T, eta)
    u2 = CheckResult(True)
    for i, f in enumerate(system.fs):
        val = ctx.eval_poly(f, args)
        if not ctx.is_zero(val):
            u2 = CheckResult(False, f"row {i + 1} does not vanish")
            break

    # U3: the product of diagonal partials is a unit.  It vanishes iff an
    # entry does, its value is the sum of the entry values, and when that
    # sum is zero its residue is the product of the entry residues.
    vals = []
    for i, f in enumerate(system.fs):
        d = ctx.eval_poly(hasse_derivative(f, 1, var=s + i), args)
        vals.append(None if ctx.is_zero(d) else ctx.valuation(d))
    entry_strs = tuple(
        "0" if v is None
        else f"value {v[0]}" if v[1] is None
        else ctx.residue_text([v[1]])
        for v in vals
    )
    if any(v is None for v in vals):
        u3 = CheckResult(False, "diagonal product vanishes")
        dval, dres = "undefined", "0"
    else:
        dval = str(sum((value for value, _ in vals), ctx.zero))
        residues = [r for _, r in vals]
        if any(r is None for r in residues):
            # the entries lie in the valuation ring, so the value is positive
            u3 = CheckResult(False, "diagonal product has nonzero value")
            dres = "0"
        else:
            u3 = CheckResult(True)
            dres = ctx.residue_text(residues)

    # generation: each ambient generator from T, eta, and witnesses;
    # coefficient-field generators are free in a relative system
    missing = []
    wmap = dict(system.witnesses)
    for i, name in enumerate(names):
        if name in system.coeff_field_names:
            continue
        gen = ctx.ambient(RationalFunction.variable(place.base, nvars, i))
        if name in wmap:
            try:
                wit = ctx.eval_ratfun(wmap[name], args)
                if not ctx.equal(wit, gen):
                    missing.append(f"{name} (witness does not reproduce it)")
            except ZeroDivisionError:
                missing.append(f"{name} (witness denominator vanishes)")
            continue
        if not any(ctx.equal(gen, el) for el in ts + xs):
            missing.append(f"{name} (no witness)")
    generation = CheckResult(not missing, "; ".join(missing))

    return VerificationReport(u1, u2, u3, generation, dval, dres, entry_strs, ctx.precision)

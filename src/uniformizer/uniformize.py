"""Construction of triangular systems at monomial places, and composition.

The systems and their checker live in ``checker``, which imports nothing
from here.
"""

from __future__ import annotations

# verify stays bound here: benchmark/ reads uniformize.verify
from .checker import TriangularSystem, verify
from .errors import PreconditionError
from .polyfield import RationalFunction, SparsePoly, ratfun_str
from .valuation import MonomialPlace, _quotient_value
from .valuegroup import perron_positive_basis, unimodular_inverse


def uniformize_abhyankar(
    place: MonomialPlace, zetas, max_steps: int | None = None
) -> TriangularSystem:
    """Build a verified-shape system for the given valuation-ring elements.

    Each zeta is normalized by the minimal-value monomial of its
    denominator, the x-exponent offsets of all terms (which have
    non-negative value) are fed to the positive-basis reduction together
    with the unit vectors, and the resulting basis yields new monomial
    generators in which numerator and denominator become honest
    polynomials with unit denominator.  Row j is then
    den_j(T) * X_j - num_j(T).
    """
    zetas = list(zetas)
    rho, tau = place.rho, place.tau
    base = place.base
    # x-exponent offsets relative to each denominator's minimal monomial; one
    # scan of each side gives membership and that monomial
    seen: dict[tuple[int, ...], None] = {}
    per_zeta: list[tuple] = []
    for i, z in enumerate(zetas):
        if not isinstance(z, RationalFunction) or z.nvars != place.nvars or z.base != base:
            raise PreconditionError(f"element {i + 1} does not live in the ambient field")
        if z.is_zero:
            per_zeta.append(None)
            continue
        value, _, dterms = _quotient_value(place, z.num, z.den)
        if value.sign() < 0:
            raise PreconditionError(
                f"element {i + 1} lies outside the valuation ring"
            )
        e0, c0 = dterms[-1]  # graded-lex smallest among the minimal-value terms
        mu0 = e0[:rho]
        for e, _ in z.num.ints + z.den.ints:
            seen.setdefault(tuple(a - b for a, b in zip(e[:rho], mu0)), None)
        per_zeta.append((mu0, c0, z.den.denom))
    for i in range(rho):
        unit = tuple(int(i == j) for j in range(rho))
        seen.setdefault(unit, None)

    if rho == 0:
        row_of: dict[tuple, tuple] = {(): ()}
        basis: list[list[int]] = []
        basis_inv: list[list[int]] = []
    else:
        alphas = list(seen)
        result = perron_positive_basis(
            place.order, [place.order.element(a) for a in alphas], max_steps
        )
        row_of = {a: result.coeffs[i] for i, a in enumerate(alphas)}
        basis = [list(row) for row in result.change]
        basis_inv = unimodular_inverse(basis)

    s = rho + tau
    n = len(zetas)
    width = s + n

    def rewrite(poly: SparsePoly, mu0, c0, d) -> SparsePoly:
        # divided by the minimal term's scalar c0/d; distinct x-exponents
        # have distinct coordinates in the basis
        terms = {}
        for e, c in poly.ints:
            xi = tuple(a - b for a, b in zip(e[:rho], mu0))
            terms[tuple(row_of[xi]) + e[rho:] + (0,) * n] = c * d
        return SparsePoly._canon(base, width, terms, poly.denom * c0)

    fs = []
    for j, z in enumerate(zetas):
        xj = SparsePoly.variable(base, width, s + j)
        if per_zeta[j] is None:
            fs.append(xj)
            continue
        den_poly = rewrite(z.den, *per_zeta[j])
        num_poly = rewrite(z.num, *per_zeta[j])
        fs.append(den_poly * xj - num_poly)

    tvars = [_monomial(base, place.nvars, row) for row in basis]
    tvars += [
        RationalFunction.variable(base, place.nvars, rho + j) for j in range(tau)
    ]
    witnesses = []
    for i in range(rho):
        witnesses.append((place.x_names[i], _monomial(base, width, basis_inv[i])))

    return TriangularSystem(
        place=place,
        tvars=tuple(tvars),
        etas=tuple(zetas),
        fs=tuple(fs),
        zeta_indices=tuple(range(n)),
        witnesses=tuple(witnesses),
    )


def _monomial(base, nvars: int, exps) -> RationalFunction:
    """x^exps over nvars variables, exps padded with zeros, negative
    exponents in the denominator."""
    pad = [0] * (nvars - len(exps))
    num = tuple([max(e, 0) for e in exps] + pad)
    den = tuple([max(-e, 0) for e in exps] + pad)
    # coprime monic monomials: already canonical
    return RationalFunction(SparsePoly(base, nvars, ((num, 1),)), SparsePoly(base, nvars, ((den, 1),)))


# ---------------------------------------------------------------------------
# Composition


def compose(outer: TriangularSystem, inner: TriangularSystem) -> TriangularSystem:
    """Stack a system over a coefficient field onto a system for that field.

    The outer system's coefficient entries must each equal one of the inner
    etas (as elements of the inner ambient field); its c-variables are then
    replaced by the matching inner X-variables.  The composed T lists the
    outer T first, the composed etas list the inner etas first, matching
    the variable layout.
    """
    if inner.coeff_table:
        raise PreconditionError("inner system must not use a coefficient table")
    inner_names = inner.place.ambient_names
    if tuple(outer.coeff_field_names) != inner_names:
        raise PreconditionError(
            "outer coefficient field does not match the inner ambient field"
        )
    outer_names = outer.place.ambient_names
    if not set(inner_names) <= set(outer_names):
        raise PreconditionError(
            "inner field generators must embed into the outer field"
        )

    match = []
    for k, c in enumerate(outer.coeff_table):
        j = next((j for j, h in enumerate(inner.etas) if h == c), None)
        if j is None:
            raise PreconditionError(
                f"coefficient {k + 1} = {ratfun_str(c, list(inner_names))} "
                "matches no inner eta"
            )
        match.append(j)

    s1, n1 = outer.s, outer.n
    s2, n2 = inner.s, inner.n
    s, n = s1 + s2, n2 + n1
    width = s + n

    inner_map = [s1 + i for i in range(s2)] + [s + j for j in range(n2)]
    outer_map = (
        list(range(s1))
        + [s + n2 + j for j in range(n1)]
        + [s + match[k] for k in range(len(outer.coeff_table))]
    )
    fs = [f.map_vars(inner_map, width) for f in inner.fs]
    fs += [f.map_vars(outer_map, width) for f in outer.fs]

    embed = [outer_names.index(nm) for nm in inner_names]
    lift = lambda rf: rf.map_vars(embed, len(outer_names))

    witnesses: dict[str, RationalFunction] = {}
    for name, w in inner.witnesses:
        witnesses[name] = w.map_vars(inner_map, width)
    for name, w in outer.witnesses:
        witnesses.setdefault(name, w.map_vars(outer_map, width))

    return TriangularSystem(
        place=outer.place,
        tvars=outer.tvars + tuple(lift(t) for t in inner.tvars),
        etas=tuple(lift(h) for h in inner.etas) + outer.etas,
        fs=tuple(fs),
        zeta_indices=tuple(n2 + i for i in outer.zeta_indices),
        witnesses=tuple(sorted(witnesses.items())),
    )

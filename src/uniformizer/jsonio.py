"""JSON encoding and validated decoding of requests and certificates.

Validation errors carry a path into the offending document, e.g.
``place.x_weights[0][1].d``.  The precision of a series place is decided
here alone: by ``parse_presentation``, and for a literal place by
``parse_series_place``.  Scalars travel as strings ("3/4", "2"),
exponent matrices as integer arrays, and all polynomials and rational
functions as expression strings in the appropriate variable names, which
the expression grammar round-trips exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, InputError, PreconditionError, SchemaError
from .expr import parse_element, parse_series
from .fields import BaseField, GF, QQ, parse_rational
from .polyfield import RationalFunction, SparsePoly, poly_str, ratfun_str
from .surd import SurdScalar, is_square_free
from .valuation import MonomialPlace
from .valuegroup import GroupOrder


def _typename(value) -> str:
    return type(value).__name__


def _need(value, typ, path: str, what: str):
    if typ is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"expected {what}, got {_typename(value)}", path)
    elif typ is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"expected {what}, got {_typename(value)}", path)
    elif not isinstance(value, typ):
        raise SchemaError(f"expected {what}, got {_typename(value)}", path)
    return value


_MISSING = object()


def _get(doc: dict, key: str, path: str, default=_MISSING):
    if key not in doc:
        if default is _MISSING:
            raise SchemaError(f"missing required key {key!r}", path)
        return default
    return doc[key]


def _scalar_in(value, base: BaseField, path: str):
    try:
        return base.coerce(_rational_in(value, path))
    except PreconditionError as e:
        raise SchemaError(str(e), path) from None


def _rational_in(value, path: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    _need(value, str, path, "a rational written as a string")
    try:
        return parse_rational(value)
    except InputError as e:
        raise SchemaError(str(e), path) from None


# ---------------------------------------------------------------------------
# base fields


def parse_base(doc, path: str) -> BaseField:
    _need(doc, dict, path, "an object")
    field = _need(_get(doc, "field", path), str, f"{path}.field", "a string")
    if field == "Q":
        return QQ()
    if field == "Fp":
        p = _need(_get(doc, "p", path), int, f"{path}.p", "an integer")
        try:
            return GF(p)
        except PreconditionError as e:
            raise SchemaError(str(e), f"{path}.p") from None
    raise SchemaError("field must be 'Q' or 'Fp'", f"{path}.field")


def base_to_json(base: BaseField) -> dict:
    if base.is_rationals:
        return {"field": "Q"}
    return {"field": "Fp", "p": base.p}


# ---------------------------------------------------------------------------
# value groups and monomial places


def _parse_weight_term(doc, path: str) -> tuple[Fraction, int]:
    _need(doc, dict, path, "an object with q and optional d")
    q = _rational_in(_get(doc, "q", path), f"{path}.q")
    d = _get(doc, "d", path, default=1)
    _need(d, int, f"{path}.d", "an integer")
    if d < 1:
        raise SchemaError("radicand must be positive", f"{path}.d")
    if not is_square_free(d):
        raise SchemaError(f"radicand {d} is not square-free", f"{path}.d")
    return q, d


def parse_weight(doc, path: str) -> SurdScalar:
    if isinstance(doc, list):
        if not doc:
            raise SchemaError("weight needs at least one term", path)
        terms = [_parse_weight_term(t, f"{path}[{i}]") for i, t in enumerate(doc)]
    else:
        terms = [_parse_weight_term(doc, path)]
    return SurdScalar.make(terms)


def weight_to_json(w: SurdScalar):
    terms = [
        {"q": str(q), "d": d} if d != 1 else {"q": str(q)} for q, d in w.terms
    ]
    return terms[0] if len(terms) == 1 else terms


def parse_order(doc, path: str) -> GroupOrder:
    _need(doc, list, path, "a list of weight blocks")
    if not doc:
        raise SchemaError("at least one block is required", path)
    blocks = []
    for b, block in enumerate(doc):
        _need(block, list, f"{path}[{b}]", "a list of weights")
        blocks.append(
            tuple(
                parse_weight(w, f"{path}[{b}][{i}]") for i, w in enumerate(block)
            )
        )
    try:
        return GroupOrder(tuple(blocks))
    except PreconditionError as e:
        raise SchemaError(str(e), path) from None


def order_to_json(order: GroupOrder) -> list:
    return [[weight_to_json(w) for w in block] for block in order.blocks]


def parse_monomial_place(doc, path: str) -> MonomialPlace:
    base = parse_base(_get(doc, "base", path), f"{path}.base")
    order = parse_order(_get(doc, "x_weights", path), f"{path}.x_weights")
    tau = _get(doc, "tau", path, default=0)
    _need(tau, int, f"{path}.tau", "an integer")
    x_names = _name_list(_get(doc, "x_names", path, default=None), f"{path}.x_names")
    y_names = _name_list(_get(doc, "y_names", path, default=None), f"{path}.y_names")
    try:
        return MonomialPlace(
            base, order, tau=tau, x_names=tuple(x_names), y_names=tuple(y_names)
        )
    except PreconditionError as e:
        raise SchemaError(str(e), path) from None


def _name_list(doc, path: str) -> list[str]:
    if doc is None:
        return []
    _need(doc, list, path, "a list of names")
    return [
        _need(n, str, f"{path}[{i}]", "a string") for i, n in enumerate(doc)
    ]


# ---------------------------------------------------------------------------
# discrete series places and presentations


def _parse_precision(doc, path: str, default=_MISSING) -> int | None:
    precision = _get(doc, "precision", path, default)
    if precision is not None:
        _need(precision, int, f"{path}.precision", "an integer")
        if precision < 1:
            raise SchemaError("precision must be at least 1", f"{path}.precision")
    return precision


def parse_presentation(doc, path: str, precision: int | None = None) -> tuple[DiscretePresentation, int]:
    """The presentation and the precision to realize it at: ``precision``
    when given, else the document's, else DEFAULT_PRECISION."""
    from .series import DEFAULT_PRECISION, DiscretePresentation

    _need(doc, dict, path, "an object")
    base = parse_base(_get(doc, "base", path), f"{path}.base")
    uniformizer = _need(
        _get(doc, "uniformizer", path, default="t"), str, f"{path}.uniformizer", "a string"
    )
    doc_precision = _parse_precision(doc, path, default=None)  # validated even when overridden
    if precision is None:
        precision = doc_precision or DEFAULT_PRECISION
    gen = _get(doc, "generator", path, default=None)
    if gen is None:
        return DiscretePresentation(base=base, uniformizer=uniformizer), precision
    gpath = f"{path}.generator"
    _need(gen, dict, gpath, "an object")
    name = _need(_get(gen, "name", gpath, default="z"), str, f"{gpath}.name", "a string")
    mp_text = _need(_get(gen, "min_poly", gpath), str, f"{gpath}.min_poly", "an expression string")
    mp = _parse_poly(mp_text, base, (uniformizer, "X"), f"{gpath}.min_poly")
    residue = _scalar_in(_get(gen, "residue", gpath), base, f"{gpath}.residue")
    try:
        pres = DiscretePresentation(
            base=base,
            uniformizer=uniformizer,
            gen_name=name,
            min_poly=mp,
            residue=residue,
        )
    except PreconditionError as e:
        raise SchemaError(str(e), gpath) from None
    return pres, precision


def parse_series_place(doc, path: str, precision: int | None = None) -> DiscreteSeriesPlace:
    """Realized form: generators carried as series literals.  Its series
    are fixed, so ``precision`` may lower the place's precision but not
    raise it."""
    from .series import DiscreteSeriesPlace

    base = parse_base(_get(doc, "base", path), f"{path}.base")
    uniformizer = _need(
        _get(doc, "uniformizer", path, default="t"), str, f"{path}.uniformizer", "a string"
    )
    realized = _parse_precision(doc, path)
    if precision is not None and precision > realized:
        raise InputError(f"--precision {precision} exceeds the place's realized precision {realized}")
    gens = _get(doc, "generators", path, default=[])
    _need(gens, list, f"{path}.generators", "a list")
    names, series = [], []
    for i, g in enumerate(gens):
        gp = f"{path}.generators[{i}]"
        _need(g, dict, gp, "an object")
        names.append(_need(_get(g, "name", gp), str, f"{gp}.name", "a string"))
        text = _need(_get(g, "series", gp), str, f"{gp}.series", "a series literal")
        try:
            series.append(parse_series(text, base, uniformizer))
        except ExprSyntaxError as e:
            raise SchemaError(str(e), f"{gp}.series") from None
    try:
        return DiscreteSeriesPlace(
            base, uniformizer, tuple(names), tuple(series), precision or realized
        )
    except PreconditionError as e:
        raise SchemaError(str(e), path) from None


def place_to_json(place) -> dict:
    if isinstance(place, MonomialPlace):
        return {
            "kind": "monomial",
            "base": base_to_json(place.base),
            "x_weights": order_to_json(place.order),
            "tau": place.tau,
            "x_names": list(place.x_names),
            "y_names": list(place.y_names),
        }
    from .series import DiscreteSeriesPlace, series_str

    if isinstance(place, DiscreteSeriesPlace):
        return {
            "kind": "discrete_series",
            "base": base_to_json(place.base),
            "uniformizer": place.uniformizer,
            "precision": place.precision,
            "generators": [
                {"name": n, "series": series_str(s, place.uniformizer)}
                for n, s in zip(place.gen_names, place.gen_series)
            ],
        }
    raise SchemaError(f"cannot serialize place of type {_typename(place)}", "place")


def parse_place(doc, path: str, precision: int | None = None):
    """Either place kind; presentation-form discrete places get realized."""
    _need(doc, dict, path, "an object")
    kind = _need(_get(doc, "kind", path), str, f"{path}.kind", "a string")
    if kind == "monomial":
        return parse_monomial_place(doc, path)
    if kind == "discrete_series":
        from .series import realize_presentation

        if "generators" in doc:
            return parse_series_place(doc, path, precision)
        return realize_presentation(*parse_presentation(doc, path, precision))
    raise SchemaError("kind must be 'monomial' or 'discrete_series'", f"{path}.kind")


# ---------------------------------------------------------------------------
# elements, systems, reports


def _parse_rf(text, base, names, path: str) -> RationalFunction:
    _need(text, str, path, "an expression string")
    try:
        return parse_element(text, base, names)
    except ExprSyntaxError as e:
        raise SchemaError(str(e), path) from None


def _parse_poly(text, base, names, path: str) -> SparsePoly:
    rf = _parse_rf(text, base, names, path)
    if not rf.den.is_constant:
        raise SchemaError("expected a polynomial, got a proper fraction", path)
    return rf.num.scale(base.inv(rf.den.constant_value()))


def system_to_json(system: TriangularSystem) -> dict:
    amb = list(system.place.ambient_names)
    names = system.var_names()
    cnames = list(system.coeff_field_names)
    return {
        "place": place_to_json(system.place),
        "tvars": [ratfun_str(f, amb) for f in system.tvars],
        "etas": [ratfun_str(f, amb) for f in system.etas],
        "fs": [poly_str(f, names) for f in system.fs],
        "coeff_field_names": cnames,
        "coeff_table": [ratfun_str(f, cnames) for f in system.coeff_table],
        "zeta_indices": list(system.zeta_indices),
        "witnesses": [[n, ratfun_str(w, names)] for n, w in system.witnesses],
    }


def parse_system(doc, path: str, precision: int | None = None) -> TriangularSystem:
    from .checker import TriangularSystem, layout_names

    _need(doc, dict, path, "an object")
    place = parse_place(_get(doc, "place", path), f"{path}.place", precision)
    base = place.base
    amb = list(place.ambient_names)

    tvars_doc = _get(doc, "tvars", path, default=[])
    etas_doc = _get(doc, "etas", path)
    fs_doc = _get(doc, "fs", path)
    for key, val in (("tvars", tvars_doc), ("etas", etas_doc), ("fs", fs_doc)):
        _need(val, list, f"{path}.{key}", "a list")

    cnames = _name_list(
        _get(doc, "coeff_field_names", path, default=[]), f"{path}.coeff_field_names"
    )
    ctable_doc = _get(doc, "coeff_table", path, default=[])
    _need(ctable_doc, list, f"{path}.coeff_table", "a list")

    names = layout_names(len(tvars_doc), len(etas_doc), len(ctable_doc))

    tvars = [_parse_rf(f, base, amb, f"{path}.tvars[{i}]") for i, f in enumerate(tvars_doc)]
    etas = [_parse_rf(f, base, amb, f"{path}.etas[{i}]") for i, f in enumerate(etas_doc)]
    fs = [_parse_poly(f, base, names, f"{path}.fs[{i}]") for i, f in enumerate(fs_doc)]
    ctable = [
        _parse_rf(f, base, cnames, f"{path}.coeff_table[{i}]")
        for i, f in enumerate(ctable_doc)
    ]

    zi_doc = _get(doc, "zeta_indices", path, default=[])
    _need(zi_doc, list, f"{path}.zeta_indices", "a list")
    zeta_indices = tuple(
        _need(i, int, f"{path}.zeta_indices[{k}]", "an integer")
        for k, i in enumerate(zi_doc)
    )

    wit_doc = _get(doc, "witnesses", path, default=[])
    _need(wit_doc, list, f"{path}.witnesses", "a list")
    witnesses = []
    for k, pair in enumerate(wit_doc):
        wp = f"{path}.witnesses[{k}]"
        _need(pair, list, wp, "a [name, expression] pair")
        if len(pair) != 2:
            raise SchemaError("expected a [name, expression] pair", wp)
        wname = _need(pair[0], str, f"{wp}[0]", "a string")
        witnesses.append((wname, _parse_rf(pair[1], base, names, f"{wp}[1]")))

    try:
        return TriangularSystem(
            place=place,
            tvars=tuple(tvars),
            etas=tuple(etas),
            fs=tuple(fs),
            coeff_field_names=tuple(cnames),
            coeff_table=tuple(ctable),
            zeta_indices=zeta_indices,
            witnesses=tuple(witnesses),
        )
    except PreconditionError as e:
        raise SchemaError(str(e), path) from None

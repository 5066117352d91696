"""Command-line front end.

Every subcommand reads one JSON request from --input (a path, or - for
stdin) and prints one JSON document (default) or a text rendering.  The
JSON output is byte-deterministic: keys are sorted and no timestamps or
environment data are embedded.  --seed is echoed back untouched so runs
can be tagged; no randomness is used anywhere.

The handlers that build a certificate share ``_certificate``, whose text
view is read from the JSON reply.  ``jsonio`` decides the precision of a
series place; ``--precision`` is handed to it, and cuts a literal element.

Every request is one process, so the handlers import what only some of
them use: ``series`` for a discrete series place, ``checker`` where a
certificate is checked, ``uniformize`` where one is built or composed,
and ``completion`` for ``discrete-uniformize`` alone.  ``verify`` loads
no construction code, and a ``value``, ``residue`` or ``report`` request
on a monomial place, or a ``perron`` request, loads none of the four.

Exit codes:
    0   success (including a verify run whose checks fail: the report is
        the deliverable)
    2   precondition or resource-cap failure, including a result integer
        past the interpreter's limit for integer string conversion
    3   insufficient series precision
    4   malformed input: JSON, schema, or expression syntax
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .errors import (
    InputError,
    InsufficientPrecisionError,
    PreconditionError,
    ResourceError,
    SchemaError,
)
from .expr import parse_series
from .jsonio import (
    _get,
    _need,
    _parse_rf,
    _rational_in,
    parse_order,
    parse_place,
    parse_presentation,
    parse_system,
    system_to_json,
)
from .polyfield import RationalFunction
from .valuation import (
    MonomialPlace,
    abhyankar_report,
    residue_of,
    value_of_ratfun,
)
from .valuegroup import perron_positive_basis


def _load(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise InputError(f"cannot read {path}: not UTF-8 ({e.reason} at byte {e.start})") from None
    try:
        doc = json.loads(text)
    except ValueError as e:
        # a JSONDecodeError, or an integer longer than int() converts
        raise InputError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("the request must be a JSON object")
    return doc


def _max_steps(doc) -> int | None:
    steps = _get(doc, "max_steps", "", default=None)
    if steps is not None:
        _need(steps, int, "max_steps", "a non-negative integer")
        if steps < 0:
            raise SchemaError(f"expected a non-negative integer, got {steps}", "max_steps")
    return steps


def _element(doc, args):
    """The request's place and element: a RationalFunction, or a literal's series."""
    place = parse_place(_get(doc, "place", ""), "place", args.precision)
    text = _need(_get(doc, "element", ""), str, "element", "an expression string")
    # a series literal, once the whitespace the expression tokenizer skips is gone
    if not isinstance(place, MonomialPlace) and "O(" in re.sub(r"[ \t\r\n]+", "", text):
        s = parse_series(text, place.base, place.uniformizer)
        # the literal runs at --precision as its place does
        return place, s if args.precision is None else s.truncate(min(s.precision, args.precision))
    return place, _parse_rf(text, place.base, place.ambient_names, "element")


def _zetas(doc, base, names) -> list:
    zetas = _need(_get(doc, "zetas", ""), list, "zetas", "a list")
    return [_parse_rf(z, base, names, f"zetas[{i}]") for i, z in enumerate(zetas)]


def _certificate(system):
    """Verify a built system; reply with it, its report and their text."""
    from .checker import verify

    report, reply = verify(system), system_to_json(system)
    text = _system_text(reply) + "\n" + report.summary()
    return {"system": reply, "report": report.as_dict()}, text


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result dict, text rendering)


def _cmd_value(doc, args):
    place, f = _element(doc, args)
    if isinstance(place, MonomialPlace):
        v = value_of_ratfun(place, f)
        result = {
            "value": str(v),
            "coordinates": [str(c) for c in v.coords],
        }
        return result, f"value = {v}"
    from .series import series_element_value

    v = series_element_value(place, f) if isinstance(f, RationalFunction) else f.known_order()
    return {"value": v}, f"value = {v}"


def _cmd_residue(doc, args):
    place, f = _element(doc, args)
    if isinstance(place, MonomialPlace):
        r = residue_of(place, f)
        return {"residue": str(r)}, f"residue = {r}"
    s = place.make_context().ambient(f) if isinstance(f, RationalFunction) else f
    rendered = place.base.scalar_str(s.residue())
    return {"residue": rendered}, f"residue = {rendered}"


def _cmd_perron(doc, args):
    order = parse_order(_get(doc, "order", ""), "order")
    alphas_doc = _need(_get(doc, "alphas", ""), list, "alphas", "a list")
    alphas = []
    for i, row in enumerate(alphas_doc):
        _need(row, list, f"alphas[{i}]", "a coordinate list")
        coords = [_rational_in(c, f"alphas[{i}][{k}]") for k, c in enumerate(row)]
        if len(coords) != order.ngens:
            raise SchemaError(f"expected {order.ngens} coordinates, got {len(coords)}", f"alphas[{i}]")
        alphas.append(order.element(coords))
    res = perron_positive_basis(order, alphas, max_steps=_max_steps(doc))
    result = {
        "basis": [[str(c) for c in row] for row in res.change],
        "change": [list(map(int, row)) for row in res.change],
        "coeffs": [list(map(int, row)) for row in res.coeffs],
        "valid": True,
    }
    lines = ["basis rows (coordinates):"]
    lines += [f"  {row}" for row in result["basis"]]
    lines.append("coefficients:")
    lines += [f"  {row}" for row in result["coeffs"]]
    return result, "\n".join(lines)


def _cmd_uniformize(doc, args):
    from .uniformize import uniformize_abhyankar

    place = parse_place(_get(doc, "place", ""), "place")
    if not isinstance(place, MonomialPlace):
        raise PreconditionError(
            "uniformize expects a monomial place; use discrete-uniformize "
            "for series places"
        )
    zetas = _zetas(doc, place.base, place.ambient_names)
    return _certificate(uniformize_abhyankar(place, zetas, max_steps=_max_steps(doc)))


def _cmd_discrete_uniformize(doc, args):
    from .completion import uniformize_discrete_rational

    pres, precision = parse_presentation(
        _get(doc, "presentation", ""), "presentation", args.precision
    )
    zetas = _zetas(doc, pres.base, pres.ambient_names)
    return _certificate(
        uniformize_discrete_rational(pres, zetas, precision=precision, max_steps=_max_steps(doc))
    )


def _cmd_compose(doc, args):
    from .uniformize import compose

    outer = parse_system(_get(doc, "outer", ""), "outer")
    inner = parse_system(_get(doc, "inner", ""), "inner")
    return _certificate(compose(outer, inner))


def _cmd_verify(doc, args):
    from .checker import verify

    report = verify(parse_system(_get(doc, "system", ""), "system", args.precision))
    return {"report": report.as_dict()}, report.summary()


def _cmd_report(doc, args):
    place = parse_place(_get(doc, "place", ""), "place")
    if isinstance(place, MonomialPlace):
        rep = abhyankar_report(place)
        result = {
            "transcendence_degree": rep.transcendence_degree,
            "rational_rank": rep.rational_rank,
            "residue_transcendence_degree": rep.residue_transcendence_degree,
            "is_abhyankar": rep.is_abhyankar,
        }
        text = (
            f"transcendence degree  {rep.transcendence_degree}\n"
            f"rational rank         {rep.rational_rank}\n"
            f"residue trdeg         {rep.residue_transcendence_degree}\n"
            f"equality holds:       {'yes' if rep.is_abhyankar else 'no'}"
        )
        return result, text
    # a discrete series place: value group Z, residue field K0
    result = {
        "transcendence_degree": 1,
        "rational_rank": 1,
        "residue_transcendence_degree": 0,
        "is_abhyankar": True,
    }
    return result, "discrete series place: rational rank 1, residue trdeg 0"


def _system_text(system: dict) -> str:
    """The text view of a certificate, read from its JSON reply."""
    lines = ["T elements:"]
    lines += [f"  t{i + 1} = {f}" for i, f in enumerate(system["tvars"])]
    lines.append("etas:")
    lines += [f"  X{j + 1} = {f}" for j, f in enumerate(system["etas"])]
    lines.append("rows:")
    lines += [f"  f{j + 1} = {f}" for j, f in enumerate(system["fs"])]
    if system["coeff_table"]:
        lines.append("coefficients:")
        lines += [f"  c{k + 1} = {f}" for k, f in enumerate(system["coeff_table"])]
    if system["zeta_indices"]:
        lines.append(f"requested elements at: {system['zeta_indices']}")
    return "\n".join(lines)


_HANDLERS = {
    "value": _cmd_value,
    "residue": _cmd_residue,
    "perron": _cmd_perron,
    "uniformize": _cmd_uniformize,
    "discrete-uniformize": _cmd_discrete_uniformize,
    "compose": _cmd_compose,
    "verify": _cmd_verify,
    "report": _cmd_report,
}

_HELP = {
    "value": "value of an element at the place",
    "residue": "residue of a valuation-ring element",
    "perron": "positive basis for value vectors with unimodular coefficients",
    "uniformize": "certificate for elements at a monomial place",
    "discrete-uniformize": "certificate pipeline through a series completion",
    "compose": "stack a relative certificate onto one for its coefficient field",
    "verify": "check a certificate and print the report",
    "report": "numerical invariants of a place",
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    It names the subcommand only; ``main`` looks its handler up in
    ``_HANDLERS`` on every call, so a handler rebound later still runs.
    """
    ap = argparse.ArgumentParser(
        prog="uniformizer",
        description="exact certificates for places of rational function fields",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument(
            "--input", required=True, help="path to a JSON request, or - for stdin"
        )
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="echoed into the output; no randomness is used",
        )
        p.add_argument(
            "--precision",
            type=int,
            default=None,
            help="series precision override where applicable",
        )
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.precision is not None and args.precision < 1:
            raise InputError("--precision must be at least 1")
        doc = _load(args.input)
        result, text = _HANDLERS[args.command](doc, args)
        if args.format == "json":
            envelope = {"command": args.command, "seed": args.seed, "result": result}
            text = json.dumps(envelope, sort_keys=True, indent=2)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InsufficientPrecisionError as e:
        hint = "" if e.needed is None else f" (needed precision: {e.needed})"
        print(f"error: {e}{hint}", file=sys.stderr)
        return 3
    except (PreconditionError, ResourceError, ZeroDivisionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # an integer in the result too long for str() (Python 3.11 and later)
        if "integer string conversion" not in str(e):
            raise
        print(
            f"error: a result integer has more than {sys.get_int_max_str_digits()} "
            "digits, the limit for integer string conversion; raise it with "
            "PYTHONINTMAXSTRDIGITS or sys.set_int_max_str_digits",
            file=sys.stderr,
        )
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

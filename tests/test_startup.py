"""What a fresh process imports: the command-line start-up stays small.

Every command-line request is one process, so each module it imports is
paid for once per request.  ``import uniformizer.cli`` loads the layers a
``value``, ``residue``, ``perron`` or ``report`` request on a monomial
place needs and no more; the certificate code (``uniformize``) and the
series stack (``series``, ``completion``) are imported by the handlers
that use them.  Only ``uniformize`` imports ``dataclasses``, for
``TriangularSystem``, so a request loads ``dataclasses`` when it loads
``uniformize`` and not otherwise.

LOADS is the table of the ``uniformizer`` modules that one small request
per subcommand loads, run through ``python -m uniformizer``:

    monomial value, residue, report; perron       BASE
    uniformize; verify of a monomial certificate  BASE + uniformize
    any request on a discrete series place,       BASE + uniformize
    discrete-uniformize, compose                     + series + completion
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from uniformizer.completion import uniformize_completion_algebraic
from uniformizer.fields import GF
from uniformizer.jsonio import system_to_json
from uniformizer.polyfield import SparsePoly
from uniformizer.surd import SurdScalar
from uniformizer.uniformize import uniformize_abhyankar
from uniformizer.valuation import MonomialPlace
from uniformizer.valuegroup import GroupOrder

_SRC = str(Path(__file__).resolve().parents[1] / "src")

BASE = {"cli", "dense", "errors", "expr", "fields", "jsonio", "polyfield", "surd", "valuation", "valuegroup"}
CERTIFICATE = BASE | {"uniformize"}
SERIES = CERTIFICATE | {"series", "completion"}
# loaded with uniformize and by no other request: dataclasses, and inspect, which it imports
WITH_UNIFORMIZE = {"dataclasses", "inspect"}

PLACE = {"kind": "monomial", "base": {"field": "Q"}, "x_weights": [[{"q": "1"}, {"q": "1", "d": 2}]], "tau": 1}
PRES = {
    "kind": "discrete_series",
    "base": {"field": "Fp", "p": 5},
    "precision": 16,
    "generator": {"name": "z", "min_poly": "X^2 - 1 - t", "residue": 1},
}


def _systems():
    """(relative series certificate, monomial certificate of its coefficients)."""
    F5 = GF(5)
    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])
    outer = uniformize_completion_algebraic(m, 1, 16)
    t_place = MonomialPlace(F5, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",))
    return outer, uniformize_abhyankar(t_place, list(outer.coeff_table))


# (subcommand, request) -> the uniformizer modules the request loads
LOADS = {
    ("value", "monomial"): BASE,
    ("residue", "monomial"): BASE,
    ("report", "monomial"): BASE,
    ("perron", "order"): BASE,
    ("uniformize", "monomial"): CERTIFICATE,
    ("verify", "monomial"): CERTIFICATE,
    ("value", "series"): SERIES,
    ("residue", "series"): SERIES,
    ("report", "series"): SERIES,
    ("discrete-uniformize", "series"): SERIES,
    ("compose", "series"): SERIES,
    ("verify", "series"): SERIES,
}


def _request(command, kind):
    if command == "perron":
        return {"order": PLACE["x_weights"], "alphas": [[1, 0], [0, 1]]}
    if command in ("compose", "verify"):
        outer, inner = _systems()
        if command == "compose":
            return {"outer": system_to_json(outer), "inner": system_to_json(inner)}
        return {"system": system_to_json(outer if kind == "series" else inner)}
    if command == "discrete-uniformize":
        return {"presentation": PRES, "zetas": ["z"]}
    place = PLACE if kind == "monomial" else PRES
    if command == "uniformize":
        return {"place": place, "zetas": ["x2/x1"]}
    if command == "report":
        return {"place": place}
    element = {"value": "x2/x1", "residue": "y1 + x1"}[command] if kind == "monomial" else "z"
    return {"place": place, "element": element}


def _python(args, cwd):
    """A fresh interpreter run on args that finds the package in this checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_no_certificate_or_series_code(tmp_path):
    # the modules the interpreter has loaded before the import do not count
    code = (
        "import json, sys; before = set(sys.modules); import uniformizer.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    done = _python(["-c", code], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "uniformizer.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "uniformizer.uniformize", "uniformizer.completion", "uniformizer.series"}


@pytest.mark.parametrize("command, kind", LOADS)
def test_each_request_loads_the_modules_of_its_table_row(tmp_path, command, kind):
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_request(command, kind)), encoding="utf-8")
    done = _python(["-X", "importtime", "-m", "uniformizer", command, "--input", str(path)], tmp_path)
    assert done.returncode == 0, done.stderr
    # -X importtime prints one line per imported module, its name last
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    names = {line.rsplit("|", 1)[1].strip() for line in lines}
    assert {n.split(".", 1)[1] for n in names if n.startswith("uniformizer.")} == LOADS[command, kind]
    if "uniformize" in LOADS[command, kind]:
        assert WITH_UNIFORMIZE <= names
    else:
        assert not names & WITH_UNIFORMIZE


def test_only_uniformize_imports_dataclasses():
    importers = [
        module.name
        for module in sorted(Path(_SRC, "uniformizer").glob("*.py"))
        if re.search(r"^\s*(import|from) dataclasses\b", module.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == ["uniformize.py"]

"""What a fresh process imports: the command-line start-up stays small.

Every command-line request is one process, so each module it imports is
paid for once per request.  ``import uniformizer.cli`` loads the layers a
``value``, ``residue``, ``perron`` or ``report`` request on a monomial
place needs and no more; the checker (``checker``), the construction code
(``uniformize``, ``completion``) and the series places (``series``) are
imported by the handlers that use them.  The checker side imports no
construction code, so a ``verify`` loads neither ``uniformize`` nor
``completion``.  Only ``checker`` imports ``dataclasses``, for
``TriangularSystem``, so a request loads ``dataclasses`` when it loads
``checker`` and not otherwise.

LOADS is the table of the ``uniformizer`` modules that one small request
per subcommand loads, run through ``python -m uniformizer``:

    monomial value, residue, report; perron       BASE
    verify of a monomial certificate              BASE + checker
    verify of a series certificate                BASE + checker + series
    value, residue, report on a series place      BASE + series
    uniformize                                    BASE + checker + uniformize
    compose                                       BASE + checker + uniformize + series
    discrete-uniformize                           BASE + checker + uniformize + series
                                                       + completion
"""

import ast
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
CHECKER = BASE | {"checker"}
BUILD = CHECKER | {"uniformize"}
# loaded with checker and by no other request: dataclasses, and inspect, which it imports
WITH_CHECKER = {"dataclasses", "inspect"}

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
    ("verify", "monomial"): CHECKER,
    ("verify", "series"): CHECKER | {"series"},
    ("value", "series"): BASE | {"series"},
    ("residue", "series"): BASE | {"series"},
    ("report", "series"): BASE | {"series"},
    ("uniformize", "monomial"): BUILD,
    ("compose", "series"): BUILD | {"series"},
    ("discrete-uniformize", "series"): BUILD | {"series", "completion"},
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
    package = {f"uniformizer.{name}" for name in ("checker", "uniformize", "series", "completion")}
    assert not loaded & ({"dataclasses", "inspect"} | package)


def _run(tmp_path, command, kind) -> set:
    """The modules one request of the table imports, read from -X
    importtime, which prints one line per imported module, its name last."""
    path = tmp_path / "request.json"
    path.write_text(json.dumps(_request(command, kind)), encoding="utf-8")
    done = _python(["-X", "importtime", "-m", "uniformizer", command, "--input", str(path)], tmp_path)
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def _package(names) -> set:
    return {n.split(".", 1)[1] for n in names if n.startswith("uniformizer.")}


@pytest.mark.parametrize("command, kind", LOADS)
def test_each_request_loads_the_modules_of_its_table_row(tmp_path, command, kind):
    names = _run(tmp_path, command, kind)
    assert _package(names) == LOADS[command, kind]
    if "checker" in LOADS[command, kind]:
        assert WITH_CHECKER <= names
    else:
        assert not names & WITH_CHECKER


def _imported(module: str) -> set:
    """The package modules that a module's import statements name, in
    functions too (the package imports its own modules relatively)."""
    tree = ast.parse(Path(_SRC, "uniformizer", f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {alias.name for alias in node.names}
    return out


def test_no_module_a_series_verify_loads_imports_construction_code(tmp_path):
    # cli dispatches every subcommand, so its handlers import both sides;
    # the table pins what its verify handler loads
    checker_side = _package(_run(tmp_path, "verify", "series")) - {"cli"}
    importers = {module: _imported(module) & {"completion", "uniformize"} for module in checker_side}
    assert importers == {module: set() for module in checker_side}


def test_only_checker_imports_dataclasses():
    importers = [
        module.name
        for module in sorted(Path(_SRC, "uniformizer").glob("*.py"))
        if re.search(r"^\s*(import|from) dataclasses\b", module.read_text(encoding="utf-8"), re.M)
    ]
    assert importers == ["checker.py"]

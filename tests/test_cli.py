"""Command-line front end: exit codes, JSON envelopes, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from uniformizer.cli import main

PLACE_R2 = {
    "kind": "monomial",
    "base": {"field": "Q"},
    "x_weights": [[{"q": "1"}, {"q": "1", "d": 2}]],
}

PRES_F5 = {
    "kind": "discrete_series",
    "base": {"field": "Fp", "p": 5},
    "uniformizer": "t",
    "precision": 16,
    "generator": {"name": "z", "min_poly": "X^2 - 1 - t", "residue": 1},
}


def run(tmp_path, capsys, command, doc, *extra):
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    code = main([command, "--input", str(path), *extra])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(tmp_path, capsys, command, doc, *extra):
    code, out, err = run(tmp_path, capsys, command, doc, *extra)
    assert code == 0, err
    env = json.loads(out)
    assert set(env) == {"command", "seed", "result"}
    assert env["command"] == command
    return env


def test_value_monomial(tmp_path, capsys):
    doc = {"place": PLACE_R2, "element": "x2/x1"}
    env = run_json(tmp_path, capsys, "value", doc)
    assert env["result"]["coordinates"] == ["-1", "1"]
    assert env["seed"] is None


def test_value_discrete_and_series_literal(tmp_path, capsys):
    doc = {"place": PRES_F5, "element": "z - 1"}
    env = run_json(tmp_path, capsys, "value", doc)
    assert env["result"] == {"value": 1}
    for element in ("3*t^2 + O(t^5)", "3*t^2 + O\t(t^5)", "3*t^2 +\nO (t^5)"):
        env = run_json(tmp_path, capsys, "value", {"place": PRES_F5, "element": element})
        assert env["result"] == {"value": 2}


def test_residue_discrete(tmp_path, capsys):
    doc = {"place": PRES_F5, "element": "(z*z - 1)/t"}
    env = run_json(tmp_path, capsys, "residue", doc)
    assert env["result"] == {"residue": "1"}


def test_residue_monomial(tmp_path, capsys):
    place = dict(PLACE_R2, tau=1)
    doc = {"place": place, "element": "(x1*y1 + x1)/x1"}
    env = run_json(tmp_path, capsys, "residue", doc)
    assert env["result"] == {"residue": "y1bar + 1"}


def test_perron(tmp_path, capsys):
    doc = {
        "order": [[{"q": "1"}, {"q": "1", "d": 2}]],
        "alphas": [["3", "-2"], [1, 0]],
    }
    env = run_json(tmp_path, capsys, "perron", doc)
    res = env["result"]
    assert res["valid"] is True
    assert len(res["basis"]) == 2
    for row in res["change"]:
        assert all(isinstance(x, int) for x in row)
    for row in res["coeffs"]:
        assert all(isinstance(x, int) and x >= 0 for x in row)
    # the whole reply: "basis" spells the rows of "change" as strings
    assert res == {
        "basis": [["3", "-2"], ["-1", "1"]],
        "change": [[3, -2], [-1, 1]],
        "coeffs": [[1, 0], [1, 2]],
        "valid": True,
    }


def test_value_on_weights_sharing_a_radicand(tmp_path, capsys):
    # weights 1 and 1 + sqrt(2): x1^3/x2^2 has value 3 - 2*(1 + sqrt(2))
    place = dict(PLACE_R2, x_weights=[[{"q": "1"}, [{"q": "1"}, {"q": "1", "d": 2}]]])
    env = run_json(tmp_path, capsys, "value", {"place": place, "element": "x1^3/x2^2"})
    assert env["result"] == {"coordinates": ["3", "-2"], "value": "-2*sqrt(2) + 1"}


def test_perron_radicand_bound(tmp_path, capsys):
    # a prime radicand just below 2^63 is factored in well under a second;
    # 2^63 and above are refused like a characteristic past a machine word
    for d, code in ((2**63 - 25, 0), (2**63, 4)):
        doc = {"order": [[{"q": "1"}, {"q": "1", "d": d}]], "alphas": [[1, 0], [0, 1]]}
        got, out, err = run(tmp_path, capsys, "perron", doc)
        assert got == code, err
    assert out == "" and err == "error: order[0][1].d: radicand must be below 2^63\n"


def test_perron_step_cap_exits_2_and_names_the_knob(tmp_path, capsys):
    # weights 1, sqrt(2), sqrt(3); 99 - 70*sqrt(2) is about 0.005, so the
    # reduction needs steps; a cap overrun ends the request at once
    doc = {
        "order": [[{"q": "1"}, {"q": "1", "d": 2}, {"q": "1", "d": 3}]],
        "alphas": [[8, -1, 0], [-1, 1, 0], [99, -70, 0]],
        "max_steps": 0,
    }
    code, out, err = run(tmp_path, capsys, "perron", doc)
    assert code == 2 and out == ""
    assert "UNIFORMIZER_MAX_PERRON_STEPS" in err and "Traceback" not in err


@pytest.mark.parametrize("alphas, message", [
    ([[1, 0], ["1/2", 0]], "alphas[1]: coordinates (1/2, 0) are not all integers"),
    ([[1, 0], [-1, 0]], "alphas[1]: value -1 is negative"),
])
def test_perron_rejected_alpha_is_named(tmp_path, capsys, alphas, message):
    doc = {"order": PLACE_R2["x_weights"], "alphas": alphas}
    code, out, err = run(tmp_path, capsys, "perron", doc)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("coord", [1.5, True, None, "abc", "1/0"])
def test_perron_schema_path(tmp_path, capsys, coord):
    doc = {"order": [[{"q": "1"}]], "alphas": [[coord]]}
    code, _, err = run(tmp_path, capsys, "perron", doc)
    assert code == 4
    assert "alphas[0][0]" in err and "Traceback" not in err


def test_perron_alpha_of_wrong_length_names_its_path(tmp_path, capsys):
    doc = {"order": PLACE_R2["x_weights"], "alphas": [[1, 0], [1]]}
    code, out, err = run(tmp_path, capsys, "perron", doc)
    assert code == 4 and out == ""
    assert "alphas[1]: expected 2 coordinates, got 1" in err and "Traceback" not in err


def test_uniformize_monomial(tmp_path, capsys):
    doc = {"place": PLACE_R2, "zetas": ["x2/x1"]}
    env = run_json(tmp_path, capsys, "uniformize", doc)
    res = env["result"]
    assert res["report"]["passed"] is True
    assert res["system"]["fs"] == ["-t2 + X1"]
    assert ["x1", "t1"] in res["system"]["witnesses"]


def test_duplicate_witness_names_exit_4(tmp_path, capsys):
    # a second witness for x1 would hide the first from verify, which
    # reads the witnesses by name
    doc = {"place": PLACE_R2, "zetas": ["x2/x1"]}
    system = run_json(tmp_path, capsys, "uniformize", doc)["result"]["system"]
    system["witnesses"].insert(0, ["x1", "t1 + 7"])
    code, _, err = run(tmp_path, capsys, "verify", {"system": system})
    assert code == 4
    assert "more than one witness for generator 'x1'" in err


@pytest.mark.parametrize("command, doc, name", [
    ("uniformize", {"place": PLACE_R2, "zetas": ["x2/x1"]}, "x1"),
    ("discrete-uniformize", {"presentation": PRES_F5, "zetas": ["z"]}, "z"),
])
def test_witness_over_a_vanishing_denominator_fails_generation(tmp_path, capsys, command, doc, name):
    # over a row, which vanishes at the system's point: exactly on a
    # monomial place, to precision on a series place
    system = run_json(tmp_path, capsys, command, doc)["result"]["system"]
    system["witnesses"] = [
        [n, f"1/({system['fs'][0]})" if n == name else w] for n, w in system["witnesses"]
    ]
    report = run_json(tmp_path, capsys, "verify", {"system": system})["result"]["report"]
    assert report["generation"] == {
        "passed": False, "detail": f"{name} (witness denominator vanishes)"
    }


def test_uniformize_rejects_series_place(tmp_path, capsys):
    doc = {"place": PRES_F5, "zetas": ["z"]}
    code, _, err = run(tmp_path, capsys, "uniformize", doc)
    assert code == 2
    assert "discrete-uniformize" in err


def test_discrete_uniformize_and_determinism(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z", "(z - 1)/t"]}
    code1, out1, _ = run(tmp_path, capsys, "discrete-uniformize", doc)
    code2, out2, _ = run(tmp_path, capsys, "discrete-uniformize", doc)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reruns
    res = json.loads(out1)["result"]
    assert res["report"]["passed"] is True
    assert res["system"]["coeff_table"] == []


def test_discrete_uniformize_elements_of_the_coefficient_field(tmp_path, capsys):
    # z^2 = 1 + t and t*z^2/(1 + t^2) lie in K0(t): each gets the single row
    # X - c, with c the negated constant coefficient of its minimal
    # polynomial; the polynomial 1 + t is written on the pooled t (X1), the
    # fraction is a coefficient entry of its own (X2)
    doc = {"presentation": PRES_F5, "zetas": ["z^2", "t*z^2/(1 + t^2)"]}
    system = run_json(tmp_path, capsys, "discrete-uniformize", doc)["result"]["system"]
    assert system["etas"] == [
        "t", "(t^2 + t)/(t^2 + 1)", "z^2", "(t*z^2)/(t^2 + 1)", "(3*t)/(z + 4)", "(2*z + 3)/(t)", "z",
    ]
    assert system["fs"] == [
        "4*t1 + X1",
        "t1^2*X2 + 4*t1^2 + 4*t1 + X2",
        "4*X1 + X3 + 4",
        "4*X2 + X4",
        "X5^2 + X1 + 4*X5",
        "X5*X6 + 4",
        "2*X1*X6 + X7 + 4",
    ]
    assert system["coeff_table"] == [] and system["tvars"] == ["t"]
    assert system["witnesses"] == [["t", "t1"], ["z", "3*X1*X6 + 1"]]
    assert system["zeta_indices"] == [2, 3]


def test_verify_round_trip(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z"]}
    env = run_json(tmp_path, capsys, "discrete-uniformize", doc)
    system = env["result"]["system"]
    env2 = run_json(tmp_path, capsys, "verify", {"system": system})
    assert env2["result"]["report"]["passed"] is True


def test_verify_of_an_unknown_coefficient_field_name_exits_2(tmp_path, capsys):
    from uniformizer.completion import uniformize_completion_algebraic
    from uniformizer.fields import GF
    from uniformizer.jsonio import system_to_json
    from uniformizer.polyfield import SparsePoly
    from frozen_copy import replace

    F5 = GF(5)
    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])
    relative = uniformize_completion_algebraic(m, 1, 16)
    assert relative.coeff_table
    system = system_to_json(replace(relative, coeff_field_names=("w",)))
    code, out, err = run(tmp_path, capsys, "verify", {"system": system})
    assert code == 2 and out == ""
    assert "'w'" in err and "Traceback" not in err


def test_verify_reports_failure_with_exit_zero(tmp_path, capsys):
    system = {
        "place": {
            "kind": "monomial",
            "base": {"field": "Q"},
            "x_weights": [[{"q": "1"}]],
            "x_names": ["t"],
        },
        "tvars": ["t"],
        "etas": ["t^2"],
        "fs": ["X1 - t1^3"],
    }
    env = run_json(tmp_path, capsys, "verify", {"system": system})
    rep = env["result"]["report"]
    assert rep["passed"] is False
    assert rep["u2"]["passed"] is False


def test_compose_cli(tmp_path, capsys):
    from uniformizer.completion import uniformize_completion_algebraic
    from uniformizer.fields import GF
    from uniformizer.jsonio import system_to_json
    from uniformizer.polyfield import SparsePoly
    from uniformizer.surd import SurdScalar
    from uniformizer.uniformize import uniformize_abhyankar
    from uniformizer.valuation import MonomialPlace
    from uniformizer.valuegroup import GroupOrder

    F5 = GF(5)
    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])
    outer = uniformize_completion_algebraic(m, 1, 16)
    t_place = MonomialPlace(F5, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",))
    inner = uniformize_abhyankar(t_place, list(outer.coeff_table))
    doc = {"outer": system_to_json(outer), "inner": system_to_json(inner)}
    env = run_json(tmp_path, capsys, "compose", doc)
    assert env["result"]["report"]["passed"] is True


def test_report_both_place_kinds(tmp_path, capsys):
    env = run_json(tmp_path, capsys, "report", {"place": dict(PLACE_R2, tau=1)})
    assert env["result"] == {
        "transcendence_degree": 3,
        "rational_rank": 2,
        "residue_transcendence_degree": 1,
        "is_abhyankar": True,
    }
    env = run_json(tmp_path, capsys, "report", {"place": PRES_F5})
    assert env["result"]["rational_rank"] == 1


def test_exit_code_2_on_precondition(tmp_path, capsys):
    doc = {"place": PLACE_R2, "element": "0"}
    code, _, err = run(tmp_path, capsys, "value", doc)
    assert code == 2
    assert "error:" in err


def test_exit_code_3_on_insufficient_precision(tmp_path, capsys):
    doc = {"place": PRES_F5, "element": "z*z - 1 - t"}
    code, _, err = run(tmp_path, capsys, "value", doc)
    assert code == 3
    assert "error:" in err
    needed = re.search(r"needed precision: (\d+)", err)
    assert needed and int(needed.group(1)) > PRES_F5["precision"]


def test_coefficient_without_inverse_exits_4(tmp_path, capsys):
    place = dict(PLACE_R2, base={"field": "Fp", "p": 5})
    code, _, err = run(tmp_path, capsys, "value", {"place": place, "element": "1/5*x1"})
    assert code == 4 and "division by zero" in err
    generator = dict(PRES_F5["generator"], residue="1/5")
    pres = dict(PRES_F5, generator=generator)
    code, _, err = run(tmp_path, capsys, "value", {"place": pres, "element": "z"})
    assert code == 4 and "place.generator.residue" in err


def _certified(tmp_path, capsys, pres, zetas):
    """discrete-uniformize exits 0 with a passing report, and verify passes
    the certificate it printed."""
    env = run_json(tmp_path, capsys, "discrete-uniformize", {"presentation": pres, "zetas": zetas})
    assert env["result"]["report"]["passed"] is True
    system = env["result"]["system"]
    assert run_json(tmp_path, capsys, "verify", {"system": system})["result"]["report"]["passed"] is True
    return system


def test_unsplit_reduction_over_q_is_certified(tmp_path, capsys):
    # after removing the residue 0 the reduction's quadratic has no rational
    # root; the relative block needs none of the other roots, so the place
    # is certified instead of refused
    generator = {"name": "z", "min_poly": "X^3 + X^2/720720 - 7*X + t", "residue": 0}
    pres = dict(PRES_F5, base={"field": "Q"}, generator=generator)
    _certified(tmp_path, capsys, pres, ["z"])


# F5(t, z) with z a root of (X - 1)(X^2 - 2) + t at residue 1: the roots of
# X^2 - 2 are not in F5
PRES_F5_UNSPLIT = dict(PRES_F5, generator={"name": "z", "min_poly": "(X - 1)*(X^2 - 2) + t", "residue": 1})


def test_place_with_roots_outside_the_residue_field_answers_queries(tmp_path, capsys):
    doc = {"place": PRES_F5_UNSPLIT, "element": "z"}
    assert run_json(tmp_path, capsys, "value", doc)["result"] == {"value": 0}
    assert run_json(tmp_path, capsys, "residue", doc)["result"] == {"residue": "1"}
    doc = {"place": PRES_F5_UNSPLIT, "element": "z - 1"}
    assert run_json(tmp_path, capsys, "value", doc)["result"] == {"value": 1}
    report = run_json(tmp_path, capsys, "report", {"place": PRES_F5_UNSPLIT})["result"]
    assert report["rational_rank"] == 1 and report["is_abhyankar"] is True


def test_place_with_roots_outside_the_residue_field_is_certified(tmp_path, capsys):
    system = _certified(tmp_path, capsys, PRES_F5_UNSPLIT, ["z", "(z - 1)/t", "z^2 + t*z"])
    assert system["coeff_table"] == []


def test_conjugate_residues_key_is_ignored(tmp_path, capsys):
    # the key no longer means anything, even a wrong or malformed claim
    doc = {"presentation": PRES_F5_UNSPLIT, "zetas": ["z"]}
    _, plain, _ = run(tmp_path, capsys, "discrete-uniformize", doc)
    for claimed in ([2, 3], "junk"):
        generator = dict(PRES_F5_UNSPLIT["generator"], conjugate_residues=claimed)
        doc = {"presentation": dict(PRES_F5_UNSPLIT, generator=generator), "zetas": ["z"]}
        code, out, _ = run(tmp_path, capsys, "discrete-uniformize", doc)
        assert code == 0 and out == plain


def test_vanishing_denominator_is_named(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["1/(z^2 - 1 - t)"]}
    code, _, err = run(tmp_path, capsys, "discrete-uniformize", doc)
    assert code == 2
    assert (
        "element (1)/(z^2 + 4*t + 4) has a denominator that vanishes "
        "modulo the minimal polynomial"
    ) in err


def test_exit_code_4_on_bad_input(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["value", "--input", str(path)]) == 4
    capsys.readouterr()

    code, _, err = run(tmp_path, capsys, "value", {"element": "x1"})
    assert code == 4 and "place" in err

    code, _, err = run(
        tmp_path, capsys, "value", {"place": PLACE_R2, "element": "x1 + ("}
    )
    assert code == 4 and "line 1" in err

    assert main(["value", "--input", str(tmp_path / "missing.json")]) == 4
    capsys.readouterr()


def test_schema_path_for_bad_weight(tmp_path, capsys):
    place = {
        "kind": "monomial",
        "base": {"field": "Q"},
        "x_weights": [[{"q": "1"}, {"q": "1", "d": 8}]],
    }
    code, _, err = run(tmp_path, capsys, "value", {"place": place, "element": "x1"})
    assert code == 4
    assert "place.x_weights[0][1].d" in err
    # malformed rationals name their document path too
    place["x_weights"] = [[{"q": "1/0"}, {"q": "1"}]]
    code, _, err = run(tmp_path, capsys, "value", {"place": place, "element": "x1"})
    assert code == 4
    assert "place.x_weights[0][0].q" in err
    pres = dict(PRES_F5, generator=dict(PRES_F5["generator"], residue="abc"))
    code, _, err = run(tmp_path, capsys, "value", {"place": pres, "element": "z"})
    assert code == 4
    assert "place.generator.residue" in err


def test_text_format_and_seed(tmp_path, capsys):
    doc = {"place": PRES_F5, "element": "z - 1"}
    code, out, _ = run(tmp_path, capsys, "value", doc, "--format", "text")
    assert code == 0 and out.strip() == "value = 1"
    env = run_json(tmp_path, capsys, "value", doc, "--seed", "42")
    assert env["seed"] == 42


def test_stdin_input(capsys, monkeypatch):
    import io

    doc = {"place": PRES_F5, "element": "z - 1"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["value", "--input", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["value"] == 1


def test_precision_flag_reaches_the_place(tmp_path, capsys):
    doc = {"place": PRES_F5, "element": "z - 1"}
    code, _, err = run(tmp_path, capsys, "value", doc, "--precision", "2")
    assert code == 0  # order 1 is still visible at precision 2
    doc = {"place": PRES_F5, "element": "(z - 1 - 3*t)/t^2"}
    code, _, _ = run(tmp_path, capsys, "value", doc, "--precision", "16")
    assert code == 0


@pytest.mark.parametrize("steps", ["abc", [1], -5, True, -1])
@pytest.mark.parametrize("command", ["perron", "uniformize", "discrete-uniformize"])
def test_max_steps_is_validated(tmp_path, capsys, command, steps):
    if command == "perron":
        doc = {"order": [[{"q": "1"}, {"q": "1", "d": 2}]], "alphas": [["3", "-2"]]}
    elif command == "uniformize":
        doc = {"place": PLACE_R2, "zetas": ["x2/x1"]}
    else:
        doc = {"presentation": PRES_F5, "zetas": ["z"]}
    code, _, err = run(tmp_path, capsys, command, dict(doc, max_steps=steps))
    assert code == 4
    assert "max_steps" in err and "Traceback" not in err


def test_precision_below_one_is_rejected(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z"]}
    for flag in ("0", "-1"):
        code, _, err = run(tmp_path, capsys, "discrete-uniformize", doc, "--precision", flag)
        assert code == 4 and "--precision" in err
    system = run_json(tmp_path, capsys, "discrete-uniformize", doc)["result"]["system"]
    for flag in ("0", "-1"):
        code, _, err = run(tmp_path, capsys, "verify", {"system": system}, "--precision", flag)
        assert code == 4 and "--precision" in err

    pres0 = dict(PRES_F5, precision=0)
    code, _, err = run(tmp_path, capsys, "discrete-uniformize", dict(doc, presentation=pres0))
    assert code == 4 and "presentation.precision" in err
    code, _, err = run(tmp_path, capsys, "value", {"place": pres0, "element": "z - 1"})
    assert code == 4 and "place.precision" in err


def test_verify_precision_above_the_place_is_rejected(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z"]}
    system = run_json(tmp_path, capsys, "discrete-uniformize", doc)["result"]["system"]
    code, _, err = run(tmp_path, capsys, "verify", {"system": system}, "--precision", "32")
    assert code == 4
    assert "--precision" in err and "16" in err and "Traceback" not in err
    env = run_json(tmp_path, capsys, "verify", {"system": system}, "--precision", "16")
    assert env["result"]["report"]["precision"] == 16


def test_precision_flag_overrides_the_document(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z"]}
    env = run_json(tmp_path, capsys, "discrete-uniformize", doc, "--precision", "8")
    assert env["result"]["report"]["precision"] == 8
    env = run_json(tmp_path, capsys, "discrete-uniformize", doc)
    assert env["result"]["report"]["precision"] == 16


def test_double_conjugate_residue_is_certified(tmp_path, capsys):
    # X^3 + 3*X + 1 + t over F5: the residue 1 is simple, the conjugate
    # residue 2 is a double root of the reduction; only the residue of z
    # must be simple, so queries answer and the place is certified
    generator = {"name": "z", "min_poly": "X^3 + 3*X + 1 + t", "residue": 1}
    pres = dict(PRES_F5, generator=generator)
    assert run_json(tmp_path, capsys, "value", {"place": pres, "element": "z"})["result"] == {"value": 0}
    _certified(tmp_path, capsys, pres, ["z", "(z - 1)/t"])
    # the double root itself cannot be z's residue
    pres = dict(PRES_F5, generator=dict(generator, residue=2))
    code, _, err = run(tmp_path, capsys, "value", {"place": pres, "element": "z"})
    assert code == 2
    assert "error:" in err and "not a simple root" in err


def _assert_input_error(code, err):
    assert code == 4
    assert err.startswith("error:") and "Traceback" not in err


def test_request_that_is_not_utf8_exits_4(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_bytes(b"\xff\xfe")
    code = main(["value", "--input", str(path)])
    _assert_input_error(code, capsys.readouterr().err)


def test_deeply_nested_json_exits_4(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text("[" * 100000)
    code = main(["value", "--input", str(path)])
    _assert_input_error(code, capsys.readouterr().err)


def test_deeply_nested_element_exits_4(tmp_path, capsys):
    doc = {"place": PLACE_R2, "element": "(" * 5000 + "x1" + ")" * 5000}
    code, _, err = run(tmp_path, capsys, "value", doc)
    _assert_input_error(code, err)
    assert "nested too deeply" in err


def test_parser_is_reused_and_handlers_are_looked_up_per_call(tmp_path, capsys, monkeypatch):
    from uniformizer import cli

    doc = {"place": PLACE_R2}
    run_json(tmp_path, capsys, "report", doc)
    parser = cli._parser()
    # a handler rebound after the parser exists is the one that runs
    monkeypatch.setitem(cli._HANDLERS, "report", lambda doc, args: ({"stub": True}, "stub"))
    env = run_json(tmp_path, capsys, "report", doc)
    assert env["result"] == {"stub": True}
    assert cli._parser() is parser


@pytest.mark.parametrize("element", ["x1^²", "x1 + ²", "x1*٣²", "x1 . 2"])
def test_digits_int_cannot_read_exit_4(tmp_path, capsys, element):
    # only decimal digits make an integer literal; a superscript is no digit
    code, _, err = run(tmp_path, capsys, "value", {"place": PLACE_R2, "element": element})
    _assert_input_error(code, err)
    assert "unexpected character" in err and "(line 1, column" in err


def _too_many_digits():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no integer string conversion limit")
    return "7" * (limit + 1)


@pytest.mark.parametrize("template", ["x1 + {}", "x1^{}", "x1^(-{})"])
def test_integer_literal_over_the_digit_limit_exits_4(tmp_path, capsys, template):
    digits = _too_many_digits()
    doc = {"place": PLACE_R2, "element": template.format(digits)}
    code, _, err = run(tmp_path, capsys, "value", doc)
    _assert_input_error(code, err)
    assert "integer literal too long" in err and "(line 1, column" in err


@pytest.mark.parametrize("template", ["1 + {}*t + O(t^4)", "1 + t + O(t^{})"])
def test_series_literal_over_the_digit_limit_exits_4(tmp_path, capsys, template):
    doc = {"place": PRES_F5, "element": template.format(_too_many_digits())}
    code, _, err = run(tmp_path, capsys, "value", doc)
    _assert_input_error(code, err)
    assert "integer literal too long" in err


def test_json_number_over_the_digit_limit_exits_4(tmp_path, capsys):
    path = tmp_path / "req.json"
    path.write_text('{"place": ' + _too_many_digits() + "}")
    code = main(["value", "--input", str(path)])
    err = capsys.readouterr().err
    _assert_input_error(code, err)
    assert "invalid JSON" in err


@pytest.fixture
def set_digit_limit():
    """sys.set_int_max_str_digits for one test; the old limit is restored after."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no integer string conversion limit")
    before = sys.get_int_max_str_digits()
    try:
        yield sys.set_int_max_str_digits
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("command, place, element, limit, digits", [
    # the residue N^2 * y1bar has twice the digits of N
    ("residue", dict(PLACE_R2, tau=1), "{N}*{N}*y1", 640, 600),
    # the value's x1 coordinate is 2N, one digit longer than N
    ("value", PLACE_R2, "x1^{N}*x1^{N}", 4300, 4300),
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_result_integer_over_the_digit_limit_exits_2(
    tmp_path, capsys, set_digit_limit, command, place, element, limit, digits, fmt
):
    set_digit_limit(limit)
    doc = {"place": place, "element": element.format(N="9" * digits)}
    code, out, err = run(tmp_path, capsys, command, doc, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert f"more than {limit} digits" in err
    assert "PYTHONINTMAXSTRDIGITS" in err and "sys.set_int_max_str_digits" in err


_SRC = str(Path(__file__).resolve().parents[1] / "src")

# one request through cli.main in a fresh interpreter; the last line of
# stderr lists the package's modules that were loaded
_PROBE = (
    "import sys\n"
    "from uniformizer.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "print(*sorted(m for m in sys.modules if m.startswith('uniformizer')), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _run_fresh(tmp_path, command, doc):
    """(exit code, stdout, loaded uniformizer modules) of one request in a new process."""
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, command, "--input", str(path)],
        capture_output=True, env=env, text=True,
    )
    return done.returncode, done.stdout, set(done.stderr.splitlines()[-1].split())


_SERIES_STACK = {"uniformizer.completion", "uniformizer.series"}


def test_monomial_requests_never_load_the_series_stack(tmp_path, capsys):
    place = dict(PLACE_R2, tau=1)
    system = run_json(tmp_path, capsys, "uniformize", {"place": place, "zetas": ["x2/x1"]})
    requests = {
        "value": {"place": place, "element": "x2/x1 + y1"},
        "residue": {"place": place, "element": "(x1*y1 + x1)/x1"},
        "perron": {"order": PLACE_R2["x_weights"], "alphas": [["3", "-2"], [1, 0]]},
        "report": {"place": place},
        "uniformize": {"place": place, "zetas": ["x2/x1", "y1"]},
        "verify": {"system": system["result"]["system"]},
    }
    for command, doc in requests.items():
        code, out, loaded = _run_fresh(tmp_path, command, doc)
        assert code == 0, command
        assert "uniformizer.cli" in loaded and "uniformizer.valuation" in loaded
        assert not loaded & _SERIES_STACK, (command, loaded & _SERIES_STACK)
        assert json.loads(out)["command"] == command


def test_series_request_loads_the_series_stack_and_prints_the_same_bytes(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z", "(z - 1)/t"]}
    code, out, loaded = _run_fresh(tmp_path, "discrete-uniformize", doc)
    assert code == 0
    assert _SERIES_STACK <= loaded
    assert (code, out) == run(tmp_path, capsys, "discrete-uniformize", doc)[:2]


# --format text of the certificate subcommands, byte for byte
UNIFORMIZE_TEXT = """\
T elements:
  t1 = x1
  t2 = (x2)/(x1)
etas:
  X1 = (x2)/(x1)
rows:
  f1 = -t2 + X1
requested elements at: [0]
U1 triangular shape: pass
U2 rows vanish: pass
U3 unit Jacobian: pass
generation: pass
"""

VERIFY_TEXT = """\
U1 triangular shape: pass
U2 rows vanish: pass
U3 unit Jacobian: pass
generation: pass
checked at series precision 16
"""

DISCRETE_UNIFORMIZE_TEXT = """\
T elements:
  t1 = t
etas:
  X1 = t
  X2 = (3*t)/(z + 4)
  X3 = (2*z + 3)/(t)
  X4 = z
  X5 = (4*t^2)/(t + 3*z + 2)
  X6 = (4*t + 2*z + 3)/(t^2)
  X7 = (z + 4)/(t)
rows:
  f1 = 4*t1 + X1
  f2 = X2^2 + X1 + 4*X2
  f3 = X2*X3 + 4
  f4 = 2*X1*X3 + X4 + 4
  f5 = X1^2 + 2*X1*X5 + X5^2 + 4*X5
  f6 = X5*X6 + 4
  f7 = 2*X1*X6 + X7 + 2
requested elements at: [3, 6]
""" + VERIFY_TEXT

COMPOSE_TEXT = """\
T elements:
  t1 = t
etas:
  X1 = t
  X2 = (3*t)/(z + 4)
  X3 = (2*z + 3)/(t)
  X4 = z
rows:
  f1 = 4*t1 + X1
  f2 = X2^2 + X1 + 4*X2
  f3 = X2*X3 + 4
  f4 = 2*X1*X3 + X4 + 4
requested elements at: [3]
""" + VERIFY_TEXT


def _f5_compose_request():
    from uniformizer.completion import uniformize_completion_algebraic
    from uniformizer.fields import GF
    from uniformizer.jsonio import system_to_json
    from uniformizer.polyfield import SparsePoly
    from uniformizer.surd import SurdScalar
    from uniformizer.uniformize import uniformize_abhyankar
    from uniformizer.valuation import MonomialPlace
    from uniformizer.valuegroup import GroupOrder

    F5 = GF(5)
    m = SparsePoly.make(F5, 2, [((0, 2), 1), ((1, 0), -1), ((0, 0), -1)])
    outer = uniformize_completion_algebraic(m, 1, 16)
    t_place = MonomialPlace(F5, GroupOrder(((SurdScalar.rational(1),),)), x_names=("t",))
    inner = uniformize_abhyankar(t_place, list(outer.coeff_table))
    return {"outer": system_to_json(outer), "inner": system_to_json(inner)}


def test_certificate_text_views(tmp_path, capsys):
    discrete = {"presentation": PRES_F5, "zetas": ["z", "(z - 1)/t"]}
    for command, doc, want in (
        ("uniformize", {"place": PLACE_R2, "zetas": ["x2/x1"]}, UNIFORMIZE_TEXT),
        ("discrete-uniformize", discrete, DISCRETE_UNIFORMIZE_TEXT),
        ("compose", _f5_compose_request(), COMPOSE_TEXT),
    ):
        assert run(tmp_path, capsys, command, doc, "--format", "text") == (0, want, "")
    system = run_json(tmp_path, capsys, "discrete-uniformize", discrete)["result"]["system"]
    assert run(tmp_path, capsys, "verify", {"system": system}, "--format", "text") == (0, VERIFY_TEXT, "")


# z = t + 2*t^3 known to precision 14, given by series literals
LITERAL_F5 = {
    "kind": "discrete_series",
    "base": {"field": "Fp", "p": 5},
    "uniformizer": "t",
    "precision": 14,
    "generators": [{"name": "z", "series": "t + 2*t^3 + O(t^14)"}],
}


@pytest.mark.parametrize("command, element, answer", [
    ("value", "z - t", "value = 3"),
    ("residue", "(z - t)/t^3", "residue = 2"),
    ("value", "t^3 + O(t^10)", "value = 3"),  # a series-literal element
])
def test_literal_place_honours_precision_up_to_its_own(tmp_path, capsys, command, element, answer):
    doc = {"place": LITERAL_F5, "element": element}
    code, _, err = run(tmp_path, capsys, command, doc, "--precision", "3")
    assert code == 3 and "(needed precision: 4)" in err
    assert run(tmp_path, capsys, command, doc, "--precision", "4", "--format", "text") == (0, answer + "\n", "")
    code, out, err = run(tmp_path, capsys, command, doc, "--precision", "15")
    assert code == 4 and out == ""
    assert "--precision 15" in err and "14" in err and "Traceback" not in err


def test_needed_exceeds_the_precision_of_a_literal_place(tmp_path, capsys):
    doc = {"place": LITERAL_F5, "element": "(z - t - 2*t^3)/t"}
    code, _, err = run(tmp_path, capsys, "value", doc)
    assert code == 3 and err.endswith("(needed precision: 15)\n")


def test_verify_realizes_a_presentation_place_at_the_flag(tmp_path, capsys):
    doc = {"presentation": PRES_F5, "zetas": ["z"]}
    system = run_json(tmp_path, capsys, "discrete-uniformize", doc)["result"]["system"]
    system["place"] = PRES_F5
    env = run_json(tmp_path, capsys, "verify", {"system": system}, "--precision", "32")
    report = env["result"]["report"]
    assert report["precision"] == 32 and report["passed"] is True

"""The summary that scripts/bench_pairs.py writes beside its runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def _run(seed, side, ops, p50):
    return {"workload": "w", "seed": seed, "pair": 0, "side": side, "attempted": 100, "failed": 0,
            "metrics": {"ops_per_s": ops, "op_p50_ms": p50}}


def test_summary_reads_the_better_direction_per_metric():
    runs = [
        _run(1, "parent", 100.0, 10.0), _run(1, "change", 130.0, 8.0),
        _run(2, "change", 120.0, 9.0), _run(2, "parent", 110.0, 8.5),
        _run(3, "parent", 90.0, 11.0), _run(3, "change", 80.0, 12.0),
    ]
    summary = bench_pairs.summarise(runs, {"ops_per_s": "higher", "op_p50_ms": "lower"})["w"]
    ops, p50 = summary["ops_per_s"], summary["op_p50_ms"]
    assert (ops["parent_median"], ops["change_median"], ops["pairs"]) == (100.0, 120.0, 3)
    assert ops["ratio"] == 1.2 and ops["change_better_pairs"] == 2
    assert ops["parent_quartiles"] == [95.0, 105.0]
    # lower is better: seed 1 is won, seeds 2 and 3 are lost
    assert (p50["parent_median"], p50["change_median"], p50["change_better_pairs"]) == (10.0, 9.0, 1)


def test_traced_summary_sets_the_traced_layers_side_by_side():
    traced = {"w": {
        "parent": {"metrics": {"polyfield.mul.self_s": 0.02, "polyfield.substitute.self_s": 0.05, "fields.ops.calls": 40}},
        "change": {"metrics": {"polyfield.mul.self_s": 0.01, "polyfield.substitute.self_s": 0.04, "fields.ops.calls": 0}},
    }}
    summary = bench_pairs.traced_summary(traced)["w"]
    assert set(summary) == set(bench_pairs.TRACED)
    assert summary["polyfield.mul.self_s"] == {"parent": 0.02, "change": 0.01, "ratio": 0.5}
    assert summary["fields.ops.calls"] == {"parent": 40, "change": 0, "ratio": 0.0}
    # the series layers are traced too; a layer a side did not report reads None
    assert {"series.mul.self_s", "series.eval_poly.self_s", "completion.kaplansky.self_s"} <= set(summary)
    assert summary["series.mul.self_s"] == {"parent": None, "change": None, "ratio": None}


SWEEP_OUTPUT = """  K0   prec  realize_s    value_s   verify_s  checks
   Q    256      0.050      0.010      0.400  ok
   Q    512      0.200      0.030      1.500  ok
  F5    256      0.004      0.001      0.080  ok
"""


def test_parse_sweep_reads_realize_and_verify_per_field_and_precision():
    sweep = bench_pairs.parse_sweep(SWEEP_OUTPUT)
    assert sweep == {
        "Q": {"256": {"realize_s": 0.05, "verify_s": 0.4}, "512": {"realize_s": 0.2, "verify_s": 1.5}},
        "F5": {"256": {"realize_s": 0.004, "verify_s": 0.08}},
    }
    summary = bench_pairs.sweep_summary({"parent": sweep, "change": {"Q": {"256": {"realize_s": 0.025, "verify_s": 0.4}}}})
    assert summary["Q"]["256"]["realize_s"] == {"parent": 0.05, "change": 0.025, "ratio": 0.5}
    assert summary["Q"]["512"]["verify_s"] == {"parent": 1.5, "change": None, "ratio": None}
    assert bench_pairs.SWEEP_ARGS == ("--fields", "0,5", "--precisions", "256,512,1024")


def test_each_side_gets_one_traced_seed_1_run_per_workload(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, workload, seed, trace))
        mul = 0.01 if checkout.endswith("change") else 0.02
        metrics = {"ops_per_s": 100.0} if not trace else {"polyfield.mul.self_s": mul}
        return {"info": {"git_revision": checkout}, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    swept = []

    def fake_sweep(checkout):
        swept.append(checkout)
        return bench_pairs.parse_sweep(SWEEP_OUTPUT)

    monkeypatch.setattr(bench_pairs, "run_sweep", fake_sweep)
    monkeypatch.setattr(bench_pairs, "module_lines", lambda checkout: LINES[checkout.rsplit("/", 1)[-1]])
    monkeypatch.setattr(bench_pairs, "checker_lines", lambda checkout: {"/p/parent": 130, "/p/change": 90}[checkout])
    imports = []

    def fake_import(checkout):
        imports.append(checkout)
        return 0.04 if checkout.endswith("change") else 0.05

    monkeypatch.setattr(bench_pairs, "import_seconds", fake_import)
    monkeypatch.setattr(bench_pairs, "STARTUP_IMPORTS", 3)
    out = tmp_path / "record.json"
    argv = ["--parent", "/p/parent", "--change", "/p/change", "--workloads", "a", "b",
            "--seeds", "5", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    traced = [c for c in calls if c[3]]
    assert sorted(traced) == sorted((f"/p/{side}", w, 1, 1) for w in ("a", "b") for side in ("parent", "change"))
    assert len(calls) - len(traced) == 2 * 2 * 2  # workloads x pairs x sides, untraced
    record = json.loads(out.read_text())
    assert record["trace_seed"] == 1 and set(record["traced"]) == {"a", "b"}
    assert record["traced_summary"]["a"]["polyfield.mul.self_s"] == {"parent": 0.02, "change": 0.01, "ratio": 0.5}
    assert record["traced_summary"]["b"]["fields.ops.calls"] == {"parent": None, "change": None, "ratio": None}
    # one sweep per side, recorded with its arguments and side by side
    assert swept == ["/p/parent", "/p/change"]
    assert record["sweep_args"] == list(bench_pairs.SWEEP_ARGS)
    assert record["sweep"]["change"]["Q"]["512"] == {"realize_s": 0.2, "verify_s": 1.5}
    assert record["sweep_summary"]["F5"]["256"]["verify_s"] == {"parent": 0.08, "change": 0.08, "ratio": 1.0}
    # each side's line count per module, side by side
    assert record["lines"] == LINES
    assert record["lines_summary"]["total"] == {"parent": 130, "change": 110, "ratio": 110 / 130}
    assert record["checker_lines"] == {"parent": 130, "change": 90, "ratio": 90 / 130}
    # three fresh imports per side, in alternating order
    assert imports == ["/p/parent", "/p/change", "/p/change", "/p/parent", "/p/parent", "/p/change"]
    assert record["startup"]["import_s"] == {"parent": [0.05] * 3, "change": [0.04] * 3}
    assert record["startup"]["summary"] == {"parent": 0.05, "change": 0.04, "ratio": 0.04 / 0.05}


def test_startup_takes_each_sides_median(monkeypatch):
    times = {"parent": iter([0.050, 0.070, 0.060, 0.055]), "change": iter([0.040, 0.042, 0.090, 0.041])}
    monkeypatch.setattr(bench_pairs, "import_seconds", lambda checkout: next(times[checkout]))
    started = bench_pairs.startup({"parent": "parent", "change": "change"}, 4)
    assert started["import_s"] == {"parent": [0.050, 0.070, 0.060, 0.055], "change": [0.040, 0.042, 0.090, 0.041]}
    assert started["summary"]["parent"] == pytest.approx(0.0575)
    assert started["summary"]["change"] == pytest.approx(0.0415)
    assert bench_pairs.startup({}, 0)["summary"] == {"parent": None, "change": None, "ratio": None}


def test_import_seconds_times_a_fresh_import_with_run_py():
    seconds = bench_pairs.import_seconds(str(PATH.parents[1]))
    assert 0 < seconds < 10


LINES = {"parent": {"a.py": 100, "b.py": 30}, "change": {"a.py": 100, "c.py": 10}}


def test_module_lines_counts_each_module_of_the_package(tmp_path):
    pkg = tmp_path / "src" / "uniformizer"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("\n" * 5 + "z = 3")  # a last line without a newline counts
    (pkg / "notes.txt").write_text("not a module\n")
    assert bench_pairs.module_lines(str(tmp_path)) == {"a.py": 2, "b.py": 6}
    summary = bench_pairs.lines_summary(LINES)
    assert summary["a.py"] == {"parent": 100, "change": 100, "ratio": 1.0}
    # a module on one side only reads None on the other
    assert summary["b.py"] == {"parent": 30, "change": None, "ratio": None}
    assert summary["c.py"] == {"parent": None, "change": 10, "ratio": None}
    assert list(summary)[-1] == "total"


def test_module_lines_sum_to_the_total_that_run_py_reports():
    root = PATH.parents[1]
    spec = importlib.util.spec_from_file_location("bench_run", root / "benchmark" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    lines = bench_pairs.module_lines(str(root))
    assert "uniformize.py" in lines and "valuation.py" in lines
    assert sum(lines.values()) == run.run_info()["src_uniformizer_lines"]


def test_checker_lines_counts_the_modules_a_series_verify_loads():
    root = PATH.parents[1]
    lines = bench_pairs.module_lines(str(root))
    # the package, its __main__, the request layer, the checker and the series places
    loaded = {
        "__init__.py", "__main__.py", "cli.py", "dense.py", "errors.py", "expr.py", "fields.py", "jsonio.py",
        "polyfield.py", "surd.py", "valuation.py", "valuegroup.py", "checker.py", "series.py",
    }
    assert bench_pairs.checker_lines(str(root)) == sum(lines[name] for name in loaded)
    assert sum(lines[name] for name in loaded) < sum(lines.values())

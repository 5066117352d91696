"""The summary that scripts/bench_pairs.py writes beside its runs."""

import importlib.util
import json
import os
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


def _traced(mul, sub, ops, outputs="o", counts="c"):
    metrics = {"polyfield.mul.self_s": mul, "polyfield.substitute.self_s": sub, "fields.ops.calls": ops}
    return {"metrics": metrics, "outputs_sha256": outputs, "counts_sha256": counts}


def test_traced_summary_sets_the_traced_layers_side_by_side():
    # each side's median over its runs: one slow run in three does not move it
    traced = {"w": {
        "parent": [_traced(0.02, 0.05, 40), _traced(0.09, 0.05, 40), _traced(0.03, 0.06, 40)],
        "change": [_traced(0.01, 0.04, 0), _traced(0.01, 0.03, 0), _traced(0.015, 0.04, 0)],
    }}
    summary = bench_pairs.traced_summary(traced)["w"]
    assert set(summary) == set(bench_pairs.TRACED)
    assert summary["polyfield.mul.self_s"] == {"parent": 0.03, "change": 0.01, "ratio": 0.01 / 0.03}
    assert summary["polyfield.substitute.self_s"] == {"parent": 0.05, "change": 0.04, "ratio": 0.04 / 0.05}
    assert summary["fields.ops.calls"] == {"parent": 40, "change": 0, "ratio": 0.0}
    # the series layers are traced too; a layer a side did not report reads None
    assert {"series.mul.self_s", "series.eval_poly.self_s", "completion.kaplansky.self_s"} <= set(summary)
    assert summary["series.mul.self_s"] == {"parent": None, "change": None, "ratio": None}


def test_traced_hashes_list_each_sides_distinct_values():
    traced = {"w": {
        "parent": [_traced(0.02, 0.05, 40)] * 3,
        "change": [_traced(0.01, 0.04, 0), _traced(0.01, 0.04, 0, counts="d"), _traced(0.01, 0.04, 0)],
    }}
    assert bench_pairs.traced_hashes(traced) == {"w": {
        "parent": {"outputs_sha256": ["o"], "counts_sha256": ["c"]},
        "change": {"outputs_sha256": ["o"], "counts_sha256": ["c", "d"]},
    }}


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
    summary = bench_pairs.sweep_summary({"parent": [sweep], "change": [{"Q": {"256": {"realize_s": 0.025, "verify_s": 0.4}}}]})
    assert summary["Q"]["256"]["realize_s"] == {"parent": 0.05, "change": 0.025, "ratio": 0.5}
    assert summary["Q"]["512"]["verify_s"] == {"parent": 1.5, "change": None, "ratio": None}
    assert bench_pairs.SWEEP_ARGS == ("--fields", "0,5", "--precisions", "256,512,1024")


def test_sweep_summary_compares_each_cells_median_over_the_runs(monkeypatch):
    def cell(realize, verify):
        return {"Q": {"512": {"realize_s": realize, "verify_s": verify}}}

    # one slow parent run in three does not move its median
    sweep = {"parent": [cell(0.2, 0.40), cell(0.2, 0.67), cell(0.3, 0.43)],
             "change": [cell(0.1, 0.46), cell(0.1, 0.44), cell(0.1, 0.41)]}
    summary = bench_pairs.sweep_summary(sweep)["Q"]["512"]
    assert summary["verify_s"] == {"parent": 0.43, "change": 0.44, "ratio": 0.44 / 0.43}
    assert summary["realize_s"] == {"parent": 0.2, "change": 0.1, "ratio": 0.5}
    assert bench_pairs.sweep_summary({"parent": [], "change": []}) == {}
    # the rounds alternate, the parent first in the odd ones
    order = []
    monkeypatch.setattr(bench_pairs, "run_sweep", lambda checkout: order.append(checkout) or cell(0.1, 0.4))
    runs = bench_pairs.sweeps({"parent": "p", "change": "c"}, 3)
    assert order == ["p", "c", "c", "p", "p", "c"]
    assert runs == {"parent": [cell(0.1, 0.4)] * 3, "change": [cell(0.1, 0.4)] * 3}


def test_each_side_gets_three_traced_seed_1_runs_per_workload(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout, workload, seed, trace))
        if not trace:
            return {"info": {"git_revision": checkout}, "attempted": 10, "failed": 0, "metrics": {"ops_per_s": 100.0}}
        # the change's second traced run of "a" is slow; the median does not see it
        n = sum(c[:2] == (checkout, workload) and c[3] for c in calls)
        mul = 0.01 if checkout.endswith("change") else 0.02
        mul = 0.5 if (checkout, workload, n) == ("/p/change", "a", 2) else mul
        return {"info": {"git_revision": checkout}, "attempted": 10, "failed": 0,
                "metrics": {"polyfield.mul.self_s": mul}, "outputs_sha256": workload, "counts_sha256": checkout}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    swept = []

    def fake_sweep(checkout):
        swept.append(checkout)
        return bench_pairs.parse_sweep(SWEEP_OUTPUT)

    monkeypatch.setattr(bench_pairs, "run_sweep", fake_sweep)
    monkeypatch.setattr(bench_pairs, "module_lines", lambda checkout: LINES[checkout.rsplit("/", 1)[-1]])
    monkeypatch.setattr(bench_pairs, "checker_lines", lambda checkout: {"/p/parent": 130, "/p/change": 90}[checkout])
    imports, caches = [], {}

    def fake_import(checkout, pycache=None):
        imports.append((checkout, pycache is not None))
        if pycache is not None:
            caches.setdefault(checkout, set()).add(pycache)
        return (0.04 if checkout.endswith("change") else 0.05) / (4 if pycache else 1)

    monkeypatch.setattr(bench_pairs, "import_seconds", fake_import)
    monkeypatch.setattr(bench_pairs, "STARTUP_IMPORTS", 3)
    monkeypatch.setattr(bench_pairs, "SWEEP_RUNS", 3)
    out = tmp_path / "record.json"
    argv = ["--parent", "/p/parent", "--change", "/p/change", "--workloads", "a", "b",
            "--seeds", "5", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    traced = [c for c in calls if c[3]]
    # three rounds per workload, the order alternating on from the four untraced pairs
    rounds = {"a": ("parent", "change", "change", "parent", "parent", "change"),
              "b": ("change", "parent", "parent", "change", "change", "parent")}
    assert traced == [(f"/p/{side}", w, 1, 1) for w in ("a", "b") for side in rounds[w]]
    assert len(calls) - len(traced) == 2 * 2 * 2  # workloads x pairs x sides, untraced
    record = json.loads(out.read_text())
    assert record["trace_seed"] == 1 and record["trace_runs"] == bench_pairs.TRACE_RUNS == 3
    assert set(record["traced"]) == {"a", "b"}
    assert [run["metrics"]["polyfield.mul.self_s"] for run in record["traced"]["a"]["change"]] == [0.01, 0.5, 0.01]
    assert record["traced_summary"]["a"]["polyfield.mul.self_s"] == {"parent": 0.02, "change": 0.01, "ratio": 0.5}
    assert record["traced_hashes"]["b"]["change"] == {"outputs_sha256": ["b"], "counts_sha256": ["/p/change"]}
    assert record["traced_summary"]["b"]["fields.ops.calls"] == {"parent": None, "change": None, "ratio": None}
    # three sweeps per side in alternating rounds, every run recorded with its arguments
    assert swept == ["/p/parent", "/p/change", "/p/change", "/p/parent", "/p/parent", "/p/change"]
    assert record["sweep_args"] == list(bench_pairs.SWEEP_ARGS) and record["sweep_runs"] == 3
    assert [run["Q"]["512"] for run in record["sweep"]["change"]] == [{"realize_s": 0.2, "verify_s": 1.5}] * 3
    assert record["sweep_summary"]["F5"]["256"]["verify_s"] == {"parent": 0.08, "change": 0.08, "ratio": 1.0}
    # each side's line count per module, side by side
    assert record["lines"] == LINES
    assert record["lines_summary"]["total"] == {"parent": 130, "change": 110, "ratio": 110 / 130}
    assert record["checker_lines"] == {"parent": 130, "change": 90, "ratio": 90 / 130}
    # one untimed cached import per side warms its cache; then three rounds
    # in alternating order, each side with no bytecode and then with its cache
    rounds = ["/p/parent", "/p/change", "/p/change", "/p/parent", "/p/parent", "/p/change"]
    assert imports == [("/p/parent", True), ("/p/change", True)] + [
        (checkout, cached) for checkout in rounds for cached in (False, True)
    ]
    assert record["startup"]["import_s"] == {"parent": [0.05] * 3, "change": [0.04] * 3}
    assert record["startup"]["summary"] == {"parent": 0.05, "change": 0.04, "ratio": 0.04 / 0.05}
    assert record["startup"]["cached_import_s"] == {"parent": [0.0125] * 3, "change": [0.01] * 3}
    assert record["startup"]["cached_summary"] == {"parent": 0.0125, "change": 0.01, "ratio": 0.01 / 0.0125}
    # each side keeps one cache of its own, in a temporary directory outside both checkouts, gone afterwards
    (parent_cache,), (change_cache,) = caches["/p/parent"], caches["/p/change"]
    assert parent_cache != change_cache
    assert not any(cache.startswith("/p/") or os.path.exists(cache) for cache in (parent_cache, change_cache))


def test_traced_hashes_that_do_not_repeat_fail_the_record(tmp_path, monkeypatch):
    traced = []

    def fake_run(checkout, workload, seed, seconds, trace=0):
        traced.append(trace)
        # the parent's second traced run counts differently
        counts = "x" if checkout == "/p/parent" and traced.count(1) == 3 else "c"
        return {"info": {}, "attempted": 1, "failed": 0, "metrics": {"ops_per_s": 1.0},
                "outputs_sha256": "o", "counts_sha256": counts}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "SWEEP_RUNS", 0)
    monkeypatch.setattr(bench_pairs, "STARTUP_IMPORTS", 0)
    monkeypatch.setattr(bench_pairs, "module_lines", lambda checkout: {})
    monkeypatch.setattr(bench_pairs, "checker_lines", lambda checkout: 1)
    monkeypatch.setattr(bench_pairs, "import_seconds", lambda checkout, pycache=None: 0.01)
    out = tmp_path / "record.json"
    argv = ["--parent", "/p/parent", "--change", "/p/change", "--workloads", "a", "--seeds", "5", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    hashes = json.loads(out.read_text())["traced_hashes"]["a"]
    assert hashes["parent"]["counts_sha256"] == ["c", "x"] and hashes["change"]["counts_sha256"] == ["c"]


def test_startup_takes_each_sides_median(monkeypatch):
    times = {"parent": iter([0.050, 0.070, 0.060, 0.055]), "change": iter([0.040, 0.042, 0.090, 0.041])}
    # the first cached import of a side warms its cache and is not recorded
    cached = {"parent": iter([0.5, 0.020, 0.021, 0.019, 0.030]), "change": iter([0.5, 0.010, 0.012, 0.011, 0.013])}
    monkeypatch.setattr(
        bench_pairs, "import_seconds", lambda checkout, pycache=None: next((cached if pycache else times)[checkout])
    )
    started = bench_pairs.startup({"parent": "parent", "change": "change"}, 4)
    assert started["import_s"] == {"parent": [0.050, 0.070, 0.060, 0.055], "change": [0.040, 0.042, 0.090, 0.041]}
    assert started["summary"]["parent"] == pytest.approx(0.0575)
    assert started["summary"]["change"] == pytest.approx(0.0415)
    assert started["cached_import_s"] == {"parent": [0.020, 0.021, 0.019, 0.030], "change": [0.010, 0.012, 0.011, 0.013]}
    assert started["cached_summary"]["parent"] == pytest.approx(0.0205)
    assert started["cached_summary"]["change"] == pytest.approx(0.0115)
    empty = bench_pairs.startup({}, 0)
    assert empty["summary"] == empty["cached_summary"] == {"parent": None, "change": None, "ratio": None}


def test_import_seconds_times_a_fresh_import_with_run_py():
    seconds = bench_pairs.import_seconds(str(PATH.parents[1]))
    assert 0 < seconds < 10


def test_cached_import_keeps_its_bytecode_out_of_the_checkout(tmp_path):
    root = PATH.parents[1]

    def caches():
        return sorted(str(p.relative_to(root)) for d in ("src", "benchmark") for p in (root / d).rglob("__pycache__"))

    before = caches()
    for _ in range(2):  # the first call writes the cache, the second reads it
        assert 0 < bench_pairs.import_seconds(str(root), str(tmp_path)) < 10
    assert caches() == before
    written = {p.name for p in tmp_path.rglob("*.pyc")}
    assert any(name.startswith("cli.") for name in written) and any(name.startswith("run.") for name in written)


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

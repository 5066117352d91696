"""The summary that scripts/bench_pairs.py writes beside its runs."""

import importlib.util
import json
from pathlib import Path

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

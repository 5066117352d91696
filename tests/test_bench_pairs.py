"""The summary that scripts/bench_pairs.py writes beside its runs."""

import importlib.util
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

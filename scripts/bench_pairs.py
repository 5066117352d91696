"""Alternating parent/change pairs of benchmark runs, recorded as one JSON file.

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads series_pipeline cli_mix --seeds 11 12 13 --pairs 2 \\
        --out BENCH_<n>_<sha>.json

Both directories are checkouts of this repository, the parent one made with
``git clone`` or ``git worktree`` outside the repository.  For every
workload, seed and pair the script runs ``benchmark/run.py`` once in each
checkout for the ``run_seconds`` of BENCHMARK.json, the parent first in
every other pair (counted across workloads and seeds) and the change
first in the rest, so that a drift of the host's speed falls on both
sides alike.  It reads the last line of each run (one JSON object) and
the ``info`` line (CPU model, nproc, Python, git revision, line count of
``src/uniformizer``).

The children run with ``PYTHONDONTWRITEBYTECODE=1``, so neither checkout
gains a bytecode cache from the runs; start from checkouts that have none,
or set-up times are not comparable.

The output holds every value of every run, and per workload and metric the
median of each side, their ratio (change / parent), the quartiles of the
parent's values and the number of pairs in which the change was better,
with "better" read from BENCHMARK.json.  It exits 1 when an operation
failed in some run, 0 otherwise, and stops with an error, writing
nothing, when ``run.py`` exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its info line and the metrics of its last line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run.py exited {done.returncode} in {checkout}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    info = json.loads(next(line[len("info "):] for line in lines if line.startswith("info ")))
    last = json.loads(lines[-1])
    return {
        "info": info,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(runs: list, better: dict) -> dict:
    """Per workload and metric: medians, ratio, parent quartiles, pairs won."""
    out: dict = {}
    for run in runs:
        by_metric = out.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            slot = by_metric.setdefault(name, {"parent": {}, "change": {}})
            slot[run["side"]][(run["seed"], run["pair"])] = value
    for workload, metrics in out.items():
        for name, slot in metrics.items():
            keys = sorted(set(slot["parent"]) & set(slot["change"]))
            parent = [slot["parent"][k] for k in keys]
            change = [slot["change"][k] for k in keys]
            higher = better.get(name) == "higher"
            med_p, med_c = statistics.median(parent), statistics.median(change)
            metrics[name] = {
                "better": better.get(name),
                "parent_median": med_p,
                "change_median": med_c,
                "ratio": med_c / med_p if med_p else None,
                "parent_quartiles": quartiles(parent),
                "change_quartiles": quartiles(change),
                "pairs": len(keys),
                "change_better_pairs": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=1, help="pairs per workload and seed")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs, info, ok, count = [], {}, True, 0
    for workload in args.workloads:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("parent", "change") if count % 2 == 0 else ("change", "parent")
                count += 1
                for side in order:
                    result = run_once(checkouts[side], workload, seed, seconds)
                    info.setdefault(side, result.pop("info"))
                    runs.append(dict(workload=workload, seed=seed, pair=pair, side=side, **result))
                    ok = ok and result["failed"] == 0
                    ops = result["metrics"].get("ops_per_s")
                    print(f"{workload} seed {seed} pair {pair} {side}: ops_per_s {ops:.6g}, "
                          f"failed {result['failed']}", flush=True)

    record = {
        "command": ["python", "scripts/bench_pairs.py"] + (sys.argv[1:] if argv is None else list(argv)),
        "seconds": seconds,
        "workloads": args.workloads,
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "info": info,
        "runs": runs,
        "summary": summarise(runs, better),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, metrics in record["summary"].items():
        for name, m in metrics.items():
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"(ratio {ratio}, change better in {m['change_better_pairs']}/{m['pairs']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

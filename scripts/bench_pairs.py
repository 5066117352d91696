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
with "better" read from BENCHMARK.json.  After the pairs, every workload
runs TRACE_RUNS (3) times traced (``--trace 1``, seed 1) in each checkout,
in alternating rounds with the parent first in every other one; the
record keeps every traced run under ``traced``, under ``traced_summary``
each side's median of the layers named in TRACED, side by side, and under
``traced_hashes`` each side's distinct ``outputs_sha256`` and
``counts_sha256`` values, one each when its runs repeat.  Last, each
checkout runs ``scripts/series_sweep.py`` SWEEP_RUNS (5) times over Q and
F5 at the precisions 256, 512 and 1024, the high-precision series path that
the benchmark workloads do not reach, in alternating rounds with the parent
first in every other one; the record keeps the realize and verify seconds
of every run under ``sweep`` and, per cell, each side's median with their
ratio under ``sweep_summary``.  The
record also keeps each checkout's line count per module of
``src/uniformizer``, counted as ``run.py`` counts the info line's total,
under ``lines`` and, side by side, under ``lines_summary``, and under
``checker_lines`` each side's line count of the modules that one fresh
``python -X importtime -m uniformizer verify`` of SERIES_CERTIFICATE
loads.  Under
``startup`` it keeps STARTUP_IMPORTS (40) fresh imports of
``uniformizer.cli`` per checkout, taken alternately, the parent first in
every other one, each timed by that checkout's ``benchmark/run.py``
``import_time`` (CPU seconds at the reference speed) with
``PYTHONDONTWRITEBYTECODE=1``, and each side's median with their ratio;
beside each, the same import with bytecode cached, read from a temporary
``PYTHONPYCACHEPREFIX`` directory per side that one untimed import warmed,
so no ``__pycache__`` lands in either checkout.
It exits 1 when an operation failed in some run or a side's traced hashes
did not repeat, 0 otherwise, and stops with an error, writing nothing,
when ``run.py`` or the sweep exits nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# per-layer metrics of the traced runs that the summary sets side by side
TRACED = (
    "polyfield.mul.self_s", "polyfield.substitute.self_s", "fields.ops.calls",
    "series.mul.self_s", "series.eval_poly.self_s", "completion.kaplansky.self_s",
)
TRACE_SEED = 1
TRACE_RUNS = 3  # traced runs per checkout and workload: one cannot tell a layer's change from drift
# the digests a traced run prints, which repeat at one seed
TRACE_HASHES = ("outputs_sha256", "counts_sha256")
# the fields (0 is Q) and precisions of scripts/series_sweep.py in the record
SWEEP_ARGS = ("--fields", "0,5", "--precisions", "256,512,1024")
SWEEP_RUNS = 5  # sweeps per checkout: one varies by more than half on a busy host
STARTUP_IMPORTS = 40  # fresh imports of uniformizer.cli per checkout
# a small series certificate as system_to_json writes it: F5(t, z) with z^2 = 1 + t
SERIES_CERTIFICATE = {
    "place": {
        "kind": "discrete_series", "base": {"field": "Fp", "p": 5}, "uniformizer": "t", "precision": 8,
        "generators": [{"name": "z", "series": "1 + 3*t + 3*t^2 + t^3 + 2*t^5 + t^6 + t^7 + O(t^8)"}],
    },
    "tvars": [],
    "etas": ["(3*t)/(z + 4)", "(2*z + 3)/(t)", "z"],
    "fs": ["X1^2 + 4*X1 + c1", "X1*X2 + 4", "4*X2*c2 + X3 + 4"],
    "coeff_field_names": ["t"],
    "coeff_table": ["t", "3*t"],
    "zeta_indices": [2],
    "witnesses": [["z", "X2*c2 + 1"]],
}


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run: its info line, the metrics of its last line and, when
    traced, its TRACE_HASHES."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"run.py exited {done.returncode} in {checkout}: {done.stderr.strip()}")
    lines = done.stdout.splitlines()
    info = json.loads(next(line[len("info "):] for line in lines if line.startswith("info ")))
    last = json.loads(lines[-1])
    hashes = {key: value for key, _, value in (line.partition(" ") for line in lines) if key in TRACE_HASHES}
    return {
        "info": info,
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        **hashes,
    }


def run_sweep(checkout: str) -> dict:
    """scripts/series_sweep.py's realize and verify seconds in one checkout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join("scripts", "series_sweep.py"), *SWEEP_ARGS],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"series_sweep.py exited {done.returncode} in {checkout}: {done.stdout.strip()}")
    return parse_sweep(done.stdout)


def parse_sweep(text: str) -> dict:
    """{field: {precision: {"realize_s", "verify_s"}}} from the sweep's rows."""
    out: dict = {}
    for line in text.splitlines()[1:]:
        field, n, realize, _value, verify = line.split()[:5]
        out.setdefault(field, {})[n] = {"realize_s": float(realize), "verify_s": float(verify)}
    return out


def import_seconds(checkout: str, pycache: str | None = None) -> float:
    """One fresh import of ``uniformizer.cli`` in a checkout, timed by its
    ``run.py``'s ``import_time``: with no bytecode, or with the bytecode
    cache kept under the directory ``pycache`` (``PYTHONPYCACHEPREFIX``)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if pycache is not None:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = pycache
    code = "import sys; sys.path.insert(0, 'benchmark'); from run import import_time; print(import_time())"
    done = subprocess.run([sys.executable, "-c", code], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"import_time exited {done.returncode} in {checkout}: {done.stderr.strip()}")
    return float(done.stdout)


def startup(checkouts: dict, count: int) -> dict:
    """count alternating fresh imports per checkout, each with no bytecode
    and with bytecode cached: every time, and each side's median with their
    ratio.  Each side's cache is a temporary directory, warmed by one
    untimed import."""
    seconds: dict = {"parent": [], "change": []}
    cached: dict = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        caches = {side: os.path.join(tmp, side) for side in checkouts}
        for side, cache in caches.items():
            import_seconds(checkouts[side], cache)
        for i in range(count):
            for side in _sides(i):
                seconds[side].append(import_seconds(checkouts[side]))
                cached[side].append(import_seconds(checkouts[side], caches[side]))
    return {
        "import_s": seconds, "summary": _medians(seconds),
        "cached_import_s": cached, "cached_summary": _medians(cached),
    }


def _sides(i: int) -> tuple:
    """The order of the sides in round i: the parent first in every other round."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def _medians(values: dict) -> dict:
    return _side_by_side(*(statistics.median(values[side]) if values[side] else None for side in ("parent", "change")))


def module_lines(checkout: str) -> dict:
    """{module file: line count} of src/uniformizer in one checkout."""
    pkg = os.path.join(checkout, "src", "uniformizer")
    out = {}
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                out[fname] = sum(1 for _ in fh)
    return out


def checker_lines(checkout: str) -> int:
    """Lines of the modules of src/uniformizer that one fresh ``python -X
    importtime -m uniformizer verify`` of SERIES_CERTIFICATE loads in a
    checkout, counted as ``module_lines`` counts them.  The package's
    ``__init__.py`` and the ``__main__.py`` that ``-m`` runs count too."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.path.join(checkout, "src"))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "uniformizer", "verify", "--input", "-"],
        input=json.dumps({"system": SERIES_CERTIFICATE}), cwd=checkout, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"verify exited {done.returncode} in {checkout}: {done.stderr.strip()}")
    # -X importtime prints one line per imported module, its name last
    names = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    files = {"__init__.py", "__main__.py"} | {n.split(".", 1)[1] + ".py" for n in names if n.startswith("uniformizer.")}
    lines = module_lines(checkout)
    return sum(lines[name] for name in files)


def lines_summary(lines: dict) -> dict:
    """Per module and in total: each side's line count and their ratio."""
    parent, change = lines["parent"], lines["change"]
    out = {name: _side_by_side(parent.get(name), change.get(name)) for name in sorted(set(parent) | set(change))}
    out["total"] = _side_by_side(sum(parent.values()), sum(change.values()))
    return out


def _side_by_side(parent, change) -> dict:
    ratio = change / parent if parent and change is not None else None
    return {"parent": parent, "change": change, "ratio": ratio}


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


def traced_summary(traced: dict) -> dict:
    """Per workload and metric of TRACED: each side's median over its
    traced runs, and their ratio."""
    def medians(runs, name):
        for side in ("parent", "change"):
            values = [run["metrics"][name] for run in runs[side] if name in run["metrics"]]
            yield statistics.median(values) if values else None

    return {workload: {name: _side_by_side(*medians(runs, name)) for name in TRACED} for workload, runs in traced.items()}


def traced_hashes(traced: dict) -> dict:
    """Per workload, side and hash of TRACE_HASHES: the distinct values over
    the side's traced runs, in the order they came."""
    return {
        workload: {side: {key: list(dict.fromkeys(run.get(key) for run in side_runs)) for key in TRACE_HASHES}
                   for side, side_runs in runs.items()}
        for workload, runs in traced.items()
    }


def sweeps(checkouts: dict, count: int) -> dict:
    """count sweeps per checkout in alternating rounds: every run per side."""
    runs: dict = {"parent": [], "change": []}
    for i in range(count):
        for side in _sides(i):
            runs[side].append(run_sweep(checkouts[side]))
    return runs


def sweep_summary(sweep: dict) -> dict:
    """Per field, precision and step of the sweep: each side's median
    seconds over its runs, and their ratio."""
    def medians(field, n, step):
        for side in ("parent", "change"):
            values = [run[field][n][step] for run in sweep[side] if n in run.get(field, {})]
            yield statistics.median(values) if values else None

    cells = sweep["parent"][0] if sweep["parent"] else {}
    return {
        field: {n: {step: _side_by_side(*medians(field, n, step)) for step in cell} for n, cell in by_n.items()}
        for field, by_n in cells.items()
    }


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
                order = _sides(count)
                count += 1
                for side in order:
                    result = run_once(checkouts[side], workload, seed, seconds)
                    info.setdefault(side, result.pop("info"))
                    runs.append(dict(workload=workload, seed=seed, pair=pair, side=side, **result))
                    ok = ok and result["failed"] == 0
                    ops = result["metrics"].get("ops_per_s")
                    print(f"{workload} seed {seed} pair {pair} {side}: ops_per_s {ops:.6g}, "
                          f"failed {result['failed']}", flush=True)
    traced = {}
    for workload in args.workloads:
        traced[workload] = {"parent": [], "change": []}
        for _ in range(TRACE_RUNS):
            order = _sides(count)
            count += 1
            for side in order:
                result = run_once(checkouts[side], workload, TRACE_SEED, seconds, trace=1)
                info.setdefault(side, result.pop("info"))
                traced[workload][side].append(result)
                ok = ok and result["failed"] == 0
    hashes = traced_hashes(traced)
    for workload, sides in hashes.items():
        for side, values in sides.items():
            for key, distinct in values.items():
                if len(distinct) != 1:
                    ok = False
                    print(f"{workload} {side}: {key} did not repeat over the traced runs: {distinct}", flush=True)
    sweep = sweeps(checkouts, SWEEP_RUNS)
    lines = {side: module_lines(checkouts[side]) for side in ("parent", "change")}
    checker = _side_by_side(*(checker_lines(checkouts[side]) for side in ("parent", "change")))
    started = startup(checkouts, STARTUP_IMPORTS)

    record = {
        "command": ["python", "scripts/bench_pairs.py"] + (sys.argv[1:] if argv is None else list(argv)),
        "seconds": seconds,
        "workloads": args.workloads,
        "seeds": args.seeds,
        "pairs_per_seed": args.pairs,
        "info": info,
        "runs": runs,
        "summary": summarise(runs, better),
        "trace_seed": TRACE_SEED,
        "trace_runs": TRACE_RUNS,
        "traced": traced,
        "traced_summary": traced_summary(traced),
        "traced_hashes": hashes,
        "sweep_args": list(SWEEP_ARGS),
        "sweep_runs": SWEEP_RUNS,
        "sweep": sweep,
        "sweep_summary": sweep_summary(sweep),
        "lines": lines,
        "lines_summary": lines_summary(lines),
        "checker_lines": checker,
        "startup": started,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, metrics in record["summary"].items():
        for name, m in metrics.items():
            ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}"
            print(f"{workload} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g} "
                  f"(ratio {ratio}, change better in {m['change_better_pairs']}/{m['pairs']})")
    for workload, metrics in record["traced_summary"].items():
        for name, m in metrics.items():
            print(f"{workload} traced median {name}: {m['parent']} -> {m['change']}")
    for field, cells in record["sweep_summary"].items():
        for n, steps in cells.items():
            for step, m in steps.items():
                print(f"sweep {field} {n} {step}: {m['parent']} -> {m['change']}")
    for name, m in record["lines_summary"].items():
        if m["parent"] != m["change"]:
            print(f"lines {name}: {m['parent']} -> {m['change']}")
    print(f"checker lines: {checker['parent']} -> {checker['change']}")
    for label, key in (("import_s", "summary"), ("cached import_s", "cached_summary")):
        m = started[key]
        print(f"startup {label} over {STARTUP_IMPORTS} imports: {m['parent']} -> {m['change']} (ratio {m['ratio']})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, timed or traced.

    python3 benchmark/run.py --workload monomial_survey --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the run is a closed loop with one client that times
operations for ``--seconds`` (and at least ``MIN_OPS`` operations) and
reports the end-to-end metrics.  With ``--trace 1`` it runs a fixed list
of operations twice, untraced and traced, and reports per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``benchmark/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
HARD_STOP_S = 120.0  # a timed loop starts no operation after this
OP_TIMEOUT_S = 30.0  # an operation still running after this counts as failed
SETUP_REPEATS = 5
STARTUP_PROBES = 5
# operations in the fixed list of a traced run, sized to take a few seconds untraced
TRACE_OPS = {"monomial_survey": 60, "series_pipeline": 30, "place_queries": 600, "cli_mix": 52}
# CPU seconds of one calibration kernel pass at the reference speed: its fast
# state on the 2-vCPU Intel Xeon KVM guest the bounds were set on
CAL_REF_S = 0.0006
CLI_COMMANDS = ("value", "residue", "perron", "uniformize", "discrete-uniformize", "compose", "verify", "report")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the method of statistics.quantiles."""
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


# ---------------------------------------------------------------------------
# calibration
#
# The host's speed moves by up to 1.9x from one second to the next (other
# tenants share its cores), far more than any bound the benchmark can hold,
# and CPU time moves with it.  So every timed operation is followed by a
# fixed pure-Python kernel of the library's own kind (sparse products over Q
# and F_101 in dicts keyed by exponent tuples), and each time is reported at
# the reference speed: CPU time x CAL_REF_S / the kernel's time beside it.

_CAL_QQ = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(3)}
_CAL_FP = {(i, j, i ^ j): (7 * i + 3 * j) % 101 for i in range(3) for j in range(5)}


def _sparse_square(f, reduce):
    out = {}
    for ea, a in f.items():
        for eb, b in f.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = reduce(out.get(e, 0) + a * b)
    return sorted(out.items())


def calibrate():
    """CPU seconds of one kernel pass, with the collector off so the library's heap does not count."""
    gc.disable()
    try:
        t0 = time.process_time()
        _sparse_square(_CAL_QQ, lambda c: c)
        _sparse_square(_CAL_FP, lambda c: c % 101)
        return time.process_time() - t0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# set-up


def make_workload(name, workloads):
    if name == "cli_mix":
        env = dict(os.environ, PYTHONPATH=SRC)
        return workloads.CliMix(os.path.join(WORK, "cli"), env)
    return {
        "monomial_survey": workloads.MonomialSurvey,
        "series_pipeline": workloads.SeriesPipeline,
        "place_queries": workloads.PlaceQueries,
    }[name]()


def op_stream(wl, seed):
    """The seeded operations: the first cycle made now, the rest on demand.

    Every input design repeats with a fixed cycle length, and a timed run
    ends on a cycle boundary, so each run sees the same mix.
    """
    stream = wl.stream(random.Random(seed))
    first = list(itertools.islice(stream, wl.cycle))
    return itertools.chain(first, stream)


def kernel_time():
    """The median of three kernel passes, for the one-off timings of set-up."""
    return statistics.median(calibrate() for _ in range(3))


def at_reference_speed(cpu, kernel):
    return cpu * CAL_REF_S / kernel


def import_time():
    """Seconds at the reference speed a fresh interpreter takes to import the library.

    The child times its kernel after the import, so that the benchmark's
    own modules are not loaded while the import is timed.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.process_time(); "
        "import uniformizer.cli; cpu = time.process_time() - t; sys.path.insert(0, sys.argv[2]); "
        "from run import kernel_time; print(cpu, kernel_time())"
    )
    bench = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run([sys.executable, "-c", code, SRC, bench], capture_output=True, text=True, check=True)
    return at_reference_speed(*map(float, done.stdout.split()))


def set_up(wl, seed):
    """Import and build the inputs SETUP_REPEATS times; the median of their sums at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_time()
        before = kernel_time()
        t0 = time.process_time()
        stream = op_stream(wl, seed)
        cpu = time.process_time() - t0
        times.append(imported + at_reference_speed(cpu, (before + kernel_time()) / 2))
    return stream, statistics.median(times)


# ---------------------------------------------------------------------------
# runs


def check(wl, op, out, full):
    """Canonical output bytes, or None when the operation fails the gate."""
    try:
        return wl.check(op, out, full)
    except Exception:  # a gate that cannot even inspect the output is a failure
        return None


class OpTimeout(Exception):
    """An operation ran past OP_TIMEOUT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation ran past {OP_TIMEOUT_S:g} s")


def run_one(run, op):
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return run(op)
    except Exception as exc:  # the failure is counted; its type is shown
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_run(wl, stream, seconds):
    """(latencies at the reference speed, wall latencies, failures, error names)."""
    latencies, walls, failed, errors = [], [], 0, set()
    cal_before = calibrate()
    start = time.perf_counter()
    for index, op in enumerate(stream):
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and index >= MIN_OPS and index % wl.cycle == 0
        if done or elapsed >= HARD_STOP_S:
            break
        t0, c0 = time.perf_counter(), time.process_time()
        out = run_one(wl.run, op)
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        cal_after = calibrate()
        latencies.append(at_reference_speed(cpu, (cal_before + cal_after) / 2))
        walls.append(wall)
        cal_before = cal_after
        if isinstance(out, Exception) or check(wl, op, out, index % 3 == 0) is None:
            failed += 1
            errors.add(type(out).__name__ if isinstance(out, Exception) else "gate")
    return latencies, walls, failed, sorted(errors)


def end_to_end(wl, seed, seconds):
    stream, setup_s = set_up(wl, seed)
    latencies, walls, failed, errors = timed_run(wl, stream, seconds)
    n = len(latencies)
    p90 = percentile(latencies, 90) * 1e3
    metrics = {
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": p90,
        "ops_per_s": n / sum(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(1 for x in latencies if x * 1e3 > p90)
    notes = {
        "op_p90_ms": f"(n={n} samples, {beyond} beyond)",
        "ops_per_s": "(closed loop, 1 client; operations / time inside operations)",
    }
    print(
        f"wall clock, not gated: p50 {statistics.median(walls) * 1e3:.6g} ms, "
        f"p90 {percentile(walls, 90) * 1e3:.6g} ms, {n / sum(walls):.6g} ops/s"
    )
    for key, unit in END_TO_END:
        print(f"{key} {metrics[key]:.6g} {unit} {notes.get(key, '')}".rstrip())
    print(f"failed_frac {failed / n:.6g} ratio ({failed} failed / {n} attempted)")
    if errors:
        print(f"failures: {', '.join(errors)}")
    return n, failed, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def trace_ops(name, wl, seed):
    return list(itertools.islice(op_stream(wl, seed), TRACE_OPS[name]))


def traced(name, wl, seed, workloads, tracing):
    """Untraced then traced pass over one fixed list; per-layer metrics."""
    ops = trace_ops(name, wl, seed)
    run = wl.run

    for _ in range(2):  # the first pass warms the interpreter; the second is timed
        t0 = time.perf_counter()
        for op in ops:
            run_one(run, op)
        untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer(extra_modules=[workloads])
    tracer.install()
    outs = []
    try:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            outs.append(run_one(lambda op: tracer.run_op(i, run, op), op))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    digest, failed, retries = hashlib.sha256(), 0, 0
    for op, out in zip(ops, outs):
        body = None if isinstance(out, Exception) else check(wl, op, out, True)
        if body is None:
            failed += 1
            continue
        digest.update(body)
        if name == "series_pipeline":
            retries += out[2]

    values = dict.fromkeys((k for k, _ in PER_LAYER), 0)
    values.update(tracer.metrics())
    values["completion.precision_retries"] = retries
    values["trace.overhead"] = untraced_s / traced_s
    if name == "cli_mix":
        startup, process_failures = cli_startup(wl, ops)
        values.update(startup)
        failed += process_failures

    counts = dict(tracer.exact_counts(), **{"completion.precision_retries": retries})
    counts_sha = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    os.makedirs(WORK, exist_ok=True)
    span_path = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
    tracer.write(span_path)
    print(f"trace ops {len(ops)}, spans {len(tracer.spans)} -> {os.path.relpath(span_path, ROOT)}")
    print(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, overhead ratio {values['trace.overhead']:.4f}")
    print(f"outputs_sha256 {digest.hexdigest()}")
    print(f"counts_sha256 {counts_sha}")
    print("counts " + json.dumps(counts, sort_keys=True))
    for key, unit in PER_LAYER:
        print(f"{key} {values[key]:.6g} {unit}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}
    return len(ops), failed, metrics


def cli_startup(wl, ops):
    """Fresh-process start-up and per-subcommand latency; (metrics, gate failures)."""

    def wall(argv):
        t0 = time.perf_counter()
        subprocess.run(argv, env=wl.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0

    interp = statistics.median(wall([sys.executable, "-c", "pass"]) for _ in range(STARTUP_PROBES))
    imported = statistics.median(
        wall([sys.executable, "-c", "import uniformizer.cli"]) for _ in range(STARTUP_PROBES)
    )
    out = {"cli.interp_s": interp, "cli.import_s": imported - interp}
    per_command, failed = {c: [] for c in CLI_COMMANDS}, 0
    for op in ops:
        t0 = time.perf_counter()
        result = run_one(wl.run_process, op)
        per_command[op.command].append(time.perf_counter() - t0)
        if isinstance(result, Exception) or check(wl, op, result, True) is None:
            failed += 1
    for command, times in per_command.items():
        out[f"cli.request.{command}.p50_ms"] = statistics.median(times) * 1e3
    return out, failed


# ---------------------------------------------------------------------------
# run record


def run_info():
    def git_revision():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
            )
        except OSError:
            return "unknown"
        return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"

    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    pkg = os.path.join(SRC, "uniformizer")
    lines = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "src_uniformizer_lines": lines,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(TRACE_OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uniformizer", "__init__.py")):
        print(f"error: no uniformizer package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    import tracing
    import workloads

    wl = make_workload(args.workload, workloads)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("params " + json.dumps(wl.params, sort_keys=True))
    print("info " + json.dumps(run_info(), sort_keys=True))
    if args.trace:
        attempted, failed, metrics = traced(args.workload, wl, args.seed, workloads, tracing)
    else:
        attempted, failed, metrics = end_to_end(wl, args.seed, args.seconds)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

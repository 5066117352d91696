"""Byte-identity smoke test of the benchmark workloads.

Runs ``benchmark/run.py --seed 1 --seconds 1 --trace 1`` on every workload
and checks that no operation failed and that each workload's
``outputs_sha256`` equals the hash pinned in EXPECTED.  The hashes are
those of the seed-1 outputs that every change since the benchmark was
introduced has kept; a change that means to alter an output updates its
hash here and says so.  Prints one line per workload, with the prefix of
its ``counts_sha256`` (the traced call counts, not pinned: a change may
move them, and says which), and exits 1 when a check fails, 0 otherwise.

    python scripts/bench_smoke.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = {
    "monomial_survey": "4d3d484536b549afb6a27b7f9be92a5d4afb0286bf974a775770c39298534220",
    "series_pipeline": "58f02451bbb67abb3f1c7c8456961fe6b699b0415073871960f0fe0399fa0017",
    "place_queries": "89d10ec9015fede4293b45d9b5a5c6af7945aa47368cab1b497f69e081f2cf15",
    "cli_mix": "72c7c97fdfe1e48c57aaaf04dee9ea2e5e4a797aaff1366412487554d65c418e",
}


def run(workload: str) -> tuple[int, str, str]:
    """(failed operations, outputs_sha256, counts_sha256) of one traced seed-1 run."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()
    found = dict(line.split()[:2] for line in lines if line.startswith(("outputs_sha256 ", "counts_sha256 ")))
    return json.loads(lines[-1])["failed"], found["outputs_sha256"], found["counts_sha256"]


def main() -> int:
    ok = True
    for workload, expected in EXPECTED.items():
        failed, digest, counts = run(workload)
        good = failed == 0 and digest == expected
        ok = ok and good
        print(f"{workload}: {'ok' if good else 'FAIL'} (failed {failed}, outputs_sha256 {digest[:8]}..., "
              f"counts_sha256 {counts[:8]}...)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

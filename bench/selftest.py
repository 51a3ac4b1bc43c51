"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs ``bench/run.py`` the way a caller would and checks that:

1. a small run of every workload (a few instances, one pass) checks
   every answer and reports ``failed`` 0;
2. two traced runs with the same seed report identical counts
   (``exact.shift_ops``, ``tds.solve_calls``, ``tds.kernel_n_sum``,
   ``partize.fallback_enum_calls``, ...);
3. in a directory holding only the benchmark, it fails without printing
   a result.

Exit code 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
SMALL = {"exact-sparse": 4, "exact-hub": 3, "girth5-tds": 6, "partize-lift": 4, "cli-mix": 19}
COUNT_UNITS = ("count", "B", "ratio")


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--instances", str(SMALL[workload])]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def main() -> int:
    problems = []
    for workload in SMALL:
        proc, result = run(workload, 0)
        if result is None or result["failed"] or not result["correct"]:
            problems.append(f"{workload}: plain run failed\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
            continue
        counts = []
        for _ in range(2):
            proc, result = run(workload, 1)
            if result is None or result["failed"]:
                problems.append(f"{workload}: traced run failed\n{proc.stdout[-1500:]}{proc.stderr[-1500:]}")
                break
            counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS})
        if len(counts) == 2 and counts[0] != counts[1]:
            differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{workload}: traced counts differ between runs: {differ}")
        print(f"{workload}: ok" if not problems or not problems[-1].startswith(workload) else f"{workload}: FAILED")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        proc, result = run("exact-sparse", 0, Path(tmp))
        if proc.returncode == 0 or result is not None:
            problems.append("without the package source the benchmark did not fail")
        print("bench-only directory: " + ("FAILED" if problems and problems[-1].startswith("without") else "ok"))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

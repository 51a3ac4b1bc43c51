"""cdcolor benchmark: one workload, one seed, closed loop, checked answers.

    python3 bench/run.py --workload exact-sparse --seed 1 --seconds 16 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  One client sends one instance at a time and waits for the
answer; there are no threads.  A pass solves every instance of the
workload once; passes repeat while another one fits in ``--seconds``.
Library workloads run in a worker process (``worker.py``) that is
killed and replaced when an instance exceeds the time limit; ``cli-mix``
runs each command as its own ``cdcolor`` process.

The last line of stdout is one JSON object.  With ``--trace 0`` its
metrics are the end-to-end ones, with times at reference speed (see
``speed.py``); with ``--trace 1`` the run makes one plain pass and one
traced pass and reports the per-layer metrics.
``bench/README.md`` explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cli_mix
import layers
from speed import calibration_s, rounds_to_reference, to_reference
from worker import SRC, fresh_import
from workloads import LIBRARY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = tuple(LIBRARY) + ("cli-mix",)

INSTANCE_LIMIT_S = 30.0  # an instance that runs longer fails
RUN_CAP_S = 140.0  # after this, remaining instances fail without running
SETUP_LIMIT_S = 90.0
CLI_SETUP_REPS = 3


class Worker:
    """One worker process at a time; a stuck or dead one is replaced."""

    def __init__(self, name: str, seed: int, count: int, spans_path: Path):
        self.argv = [sys.executable, str(BENCH / "worker.py"), name, str(seed), str(count), str(spans_path)]
        self.setup_s = None
        self.setup_raw_s = None
        self.oracle_s = None
        self.restarts = 0
        self.traced = False
        self._start()

    def _start(self) -> None:
        self.proc = subprocess.Popen(self.argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.buf = b""
        try:
            ready = self._recv(SETUP_LIMIT_S)
        except (TimeoutError, EOFError):
            self.stop()
            raise
        if self.setup_s is None:
            self.setup_s, self.setup_raw_s, self.oracle_s = ready["setup_s"], ready["setup_raw_s"], ready["oracle_s"]

    def _send(self, msg: dict) -> None:
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()

    def _recv(self, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"no answer within {timeout:.0f} s")
            if select.select([fd], [], [], left)[0]:
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EOFError(f"worker exited with code {self.proc.wait()}")
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def trace(self) -> None:
        self._send({"trace": True})
        self._recv(SETUP_LIMIT_S)
        self.traced = True

    def solve(self, i: int):
        """Raw latency, latency at reference speed, and the problem
        (None when the answer checked out)."""
        start = time.perf_counter()
        try:
            self._send({"solve": i})
            reply = self._recv(INSTANCE_LIMIT_S)
        except (TimeoutError, EOFError, BrokenPipeError) as exc:
            latency = time.perf_counter() - start
            self.stop()
            self.restarts += 1
            self._start()
            if self.traced:
                self.trace()
            return latency, latency, f"worker: {exc}"
        return reply["latency_s"], reply["ref_latency_s"], reply["problem"]

    def finish(self):
        self._send({"finish": True})
        report = self._recv(SETUP_LIMIT_S)["report"]
        self.proc.stdin.close()
        self.proc.wait(timeout=SETUP_LIMIT_S)
        return report

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


class Loop:
    """Closed loop over passes; records latencies, problems and pass walls.

    ``ref_*`` are the same quantities at reference speed (see
    :mod:`speed`); a pass's wall time is scaled by the latency-weighted
    speed factor of its instances.
    """

    def __init__(self, count: int, started: float):
        self.count = count
        self.started = started
        self.latencies = []
        self.ref_latencies = []
        self.problems = []
        self.walls = []
        self.ref_walls = []

    def run_pass(self, solve) -> None:
        first = len(self.latencies)
        start = time.perf_counter()
        for i in range(self.count):
            if time.monotonic() - self.started > RUN_CAP_S:
                latency = ref_latency = INSTANCE_LIMIT_S
                problem = "run time cap reached"
            else:
                latency, ref_latency, problem = solve(i)
            self.latencies.append(latency)
            self.ref_latencies.append(ref_latency)
            if problem is not None:
                self.problems.append({"pass": len(self.walls), "instance": i, "problem": problem})
        wall = time.perf_counter() - start
        raw = sum(self.latencies[first:])
        self.walls.append(wall)
        self.ref_walls.append(wall * sum(self.ref_latencies[first:]) / raw if raw > 0 else wall)

    def run_for(self, seconds: float, solve) -> None:
        self.run_pass(solve)
        while sum(self.walls) + self.walls[-1] <= seconds:
            self.run_pass(solve)


def run_library(args, count: int, started: float) -> dict:
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    worker = Worker(args.workload, args.seed, count, spans_path)
    loop = Loop(count, started)
    try:
        if args.trace:
            loop.run_pass(worker.solve)
            worker.trace()
            loop.run_pass(worker.solve)
        else:
            loop.run_for(args.seconds, worker.solve)
        report = worker.finish()
    finally:
        worker.stop()
    return {
        "loop": loop,
        "setup_s": worker.setup_s,
        "setup_raw_s": worker.setup_raw_s,
        "oracle_s": worker.oracle_s,
        "restarts": worker.restarts,
        "report": report,
        "startup_s": 0.0,
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(args, count: int, started: float) -> dict:
    env = _cli_env()
    workdir = OUT / f"cli-{args.seed}-{os.getpid()}"
    setup_raw_s, calibrations = [], []
    for _ in range(CLI_SETUP_REPS):
        calibrations.append(calibration_s())
        start = time.perf_counter()
        cd = fresh_import()
        graphs = cli_mix.generate(cd, random.Random(f"cli-mix:{args.seed}"), workdir)
        setup_raw_s.append(time.perf_counter() - start)
        calibrations.append(calibration_s())
    setup_s = rounds_to_reference(setup_raw_s, calibrations)
    start = time.perf_counter()
    cmds = cli_mix.commands(cd, graphs, workdir, args.seed)[:count]
    oracle_s = time.perf_counter() - start
    reports, startups, traced_runs = [], [], []
    tracing = False

    def solve(i: int):
        cmd = cmds[i]
        if tracing:
            spans_file = workdir / f"spans-{len(traced_runs)}.json"
            argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_file), *cmd.argv]
        else:
            argv = [sys.executable, "-m", "cdcolor.cli", *cmd.argv]
        before = calibration_s()
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=INSTANCE_LIMIT_S
            )
        except subprocess.TimeoutExpired:
            latency = time.perf_counter() - start
            return latency, latency, f"{cmd.argv[0]}: no exit within {INSTANCE_LIMIT_S:.0f} s"
        latency = time.perf_counter() - start
        ref_latency = to_reference(latency, before, calibration_s())
        if tracing and spans_file.exists():
            data = json.loads(spans_file.read_text())
            reports.append(data["report"])
            startups.append(data["startup_s"])
            traced_runs.append({"argv": cmd.argv, "startup_s": data["startup_s"], "spans": data["spans"]})
        if proc.returncode != cmd.rc:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or [""]
            problem = f"{' '.join(cmd.argv[:3])}: exit {proc.returncode}, expected {cmd.rc} ({tail[0][:120]})"
            return latency, ref_latency, problem
        problem = cmd.check(proc.stdout) if cmd.check else None
        return latency, ref_latency, problem and f"{cmd.argv[0]}: {problem}"

    loop = Loop(len(cmds), started)
    spans_path = OUT / f"spans-cli-mix-seed{args.seed}.json"
    try:
        if args.trace:
            loop.run_pass(solve)
            tracing = True
            loop.run_pass(solve)
            spans_path.write_text(json.dumps({"commands": traced_runs}))
        else:
            loop.run_for(args.seconds, solve)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "loop": loop,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "oracle_s": oracle_s,
        "restarts": 0,
        "report": layers.merge_reports(reports) if args.trace else None,
        "startup_s": sum(startups),
        "spans": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }


def provenance(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", type=int, help="instances per pass (default: the workload's own)")
    args = parser.parse_args(argv)
    if not (SRC / "cdcolor" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'cdcolor'}; run from a cdcolor checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    if args.workload == "cli-mix":
        count = args.instances or 10**6
        run = run_cli(args, count, started)
    else:
        count = args.instances or LIBRARY[args.workload].count
        run = run_library(args, count, started)
    loop = run["loop"]
    attempted, failed = len(loop.latencies), len(loop.problems)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # a traced run's end-to-end figures come from its plain pass only
    passes = slice(0, 1) if args.trace else slice(None)
    timed = slice(0, loop.count) if args.trace else slice(None)
    e2e = {
        "setup_s": statistics.median(run["setup_s"]),
        "wall_s": statistics.median(loop.ref_walls[passes]),
        "solve_p50_s": statistics.median(loop.ref_latencies[timed]),
        "peak_rss_mib": peak_rss_mib,
    }
    raw = {
        "setup_s": statistics.median(run["setup_raw_s"]),
        "wall_s": statistics.median(loop.walls[passes]),
        "solve_p50_s": statistics.median(loop.latencies[timed]),
    }
    units = {"setup_s": "s", "wall_s": "s", "solve_p50_s": "s", "peak_rss_mib": "MiB"}
    layer_s = None
    if args.trace:
        plain, traced = loop.ref_walls
        overhead_pct = 100.0 * (traced - plain) / plain
        report = run["report"] or layers.merge_reports([])
        layer_s = layers.layer_seconds(report, run["startup_s"])
        metrics = layers.per_layer_metrics(report, loop.walls[1], run["startup_s"], overhead_pct)
    else:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in e2e.items()}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "passes": len(loop.walls),
        "pass_walls_s": loop.walls,
        "ref_pass_walls_s": loop.ref_walls,
        "latencies_s": loop.latencies,
        "ref_latencies_s": loop.ref_latencies,
        "instances_per_pass": loop.count,
        "setup_reps_s": run["setup_s"],
        "setup_reps_raw_s": run["setup_raw_s"],
        "oracle_s": run["oracle_s"],
        "worker_restarts": run["restarts"],
        "end_to_end": e2e,
        "raw_wall_clock": raw,
        "failed_ratio": failed / attempted,
        "problems": loop.problems[:50],
        "layer_seconds": layer_s,
        "spans": run["spans"],
        "metrics": metrics,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in loop.problems[:10]:
        print(f"FAILED pass {problem['pass']} instance {problem['instance']}: {problem['problem']}")
    print(
        f"{args.workload} seed={args.seed} passes={len(loop.walls)} instances/pass={loop.count} "
        f"setup_s={e2e['setup_s']:.4f} (median of {len(run['setup_s'])}) "
        f"wall_s={e2e['wall_s']:.4f} (median of {len(loop.walls[passes])} passes) "
        f"solve_p50_s={e2e['solve_p50_s']:.4f} (n={len(loop.latencies[timed])}) "
        f"peak_rss_mib={peak_rss_mib:.1f} failed_ratio={failed / attempted:.4f} ({failed}/{attempted})"
    )
    print(
        "raw wall clock, before the speed calibration: "
        + " ".join(f"{name}={value:.4f}" for name, value in raw.items())
    )
    if layer_s is not None:
        print("layer seconds: " + json.dumps({k: round(v, 6) for k, v in layer_s.items() if v}))
    print("provenance: " + json.dumps(record["provenance"]))
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

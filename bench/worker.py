"""Worker process for one library workload.

Started by ``run.py`` as ``python3 bench/worker.py WORKLOAD SEED COUNT
SPANS_PATH``.  It imports the package from the checkout's ``src``, sets
the workload up several times (timing each set-up without the oracle
work that computes the reference answers), then serves one JSON request
per line on stdin:

- ``{"solve": i}``: solve and check instance ``i``; the reply carries
  its latency, raw and at reference speed, and the problem found, if any;
- ``{"trace": true}``: wrap the layers (see :mod:`layers`);
- ``{"finish": true}``: reply with the layer report, write the spans
  to SPANS_PATH if tracing was on, and exit.

Replies go to the original stdout; anything else the process prints is
sent to stderr so it cannot corrupt the protocol.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import layers  # noqa: E402
from speed import calibration_s, rounds_to_reference, to_reference  # noqa: E402
from workloads import LIBRARY, Oracle  # noqa: E402

SETUP_REPS = 3
MODULES = ("bits", "graph", "coloring", "generate", "exact", "tds", "fpt", "partize", "split")


def fresh_import() -> SimpleNamespace:
    """Import the package anew from ``src`` (dropping any earlier copy)."""
    for name in [m for m in sys.modules if m == "cdcolor" or m.startswith("cdcolor.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cdcolor")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cdcolor was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"cdcolor.{m}") for m in MODULES})


def set_up(workload, seed: int, count: int):
    """Import, generate the inputs and warm lazy caches; time each round.

    The oracle's seconds are taken out of each round's time.  Returns
    the rounds' times at reference speed (see :mod:`speed`) and raw.
    """
    oracle = Oracle()
    raw, calibrations = [], []
    for _ in range(SETUP_REPS):
        calibrations.append(calibration_s())
        start, oracle_before = time.perf_counter(), oracle.seconds
        cd = fresh_import()
        instances = workload.generate(cd, random.Random(f"{workload.name}:{seed}"), count, oracle)
        workload.warm(cd, instances)
        raw.append(time.perf_counter() - start - (oracle.seconds - oracle_before))
        calibrations.append(calibration_s())
    return cd, instances, rounds_to_reference(raw, calibrations), raw, oracle.seconds


def main(argv) -> int:
    name, seed, count, spans_path = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    def reply(msg: dict) -> None:
        proto.write(json.dumps(msg) + "\n")
        proto.flush()

    workload = LIBRARY[name]
    cd, instances, setup_times, setup_raw, oracle_s = set_up(workload, seed, count)
    reply({"setup_s": setup_times, "setup_raw_s": setup_raw, "oracle_s": oracle_s})

    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        if "solve" in msg:
            i = msg["solve"]
            before = calibration_s()
            start = time.perf_counter()
            try:
                result = workload.solve(cd, instances[i])
                problem = None
            except Exception as exc:  # an instance that raises counts as failed
                result, problem = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            ref_latency = to_reference(latency, before, calibration_s())
            if problem is None:
                try:
                    problem = workload.check(cd, instances[i], result)
                except Exception as exc:
                    problem = f"check raised {type(exc).__name__}: {exc}"
            reply({"i": i, "latency_s": latency, "ref_latency_s": ref_latency, "problem": problem})
        elif msg.get("trace"):
            tracer = layers.Tracer().install()
            reply({"installed": tracer.installed})
        elif msg.get("finish"):
            if tracer is not None:
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                spans_path.write_text(json.dumps(layers.spans_payload(tracer)))
            reply({"report": tracer.report() if tracer else None})
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Run one ``cdcolor`` command with the layers wrapped.

    python3 bench/cli_traced.py SPANS_JSON <cdcolor arguments...>

Used by the traced ``cli-mix`` pass in place of ``python3 -m
cdcolor.cli``.  It times the import of ``cdcolor.cli``, wraps the
layers, runs the command, and writes the import time, the layer report
and the spans to SPANS_JSON.  The exit code is the command's.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

import layers


def main(argv) -> int:
    out = Path(argv[0])
    start = time.perf_counter()
    cli = importlib.import_module("cdcolor.cli")
    startup_s = time.perf_counter() - start
    tracer = layers.Tracer().install()
    try:
        return cli.main(argv[1:])
    finally:
        out.write_text(json.dumps({"startup_s": startup_s, "report": tracer.report(), **layers.spans_payload(tracer)}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

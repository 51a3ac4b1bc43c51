"""Layer tracing from outside the package.

A traced run replaces the module attributes through which callers look
up each layer's functions with wrappers that record a span (name,
start, end, parent) and layer counters.  Nothing under ``src/`` changes.
A site whose module or attribute no longer exists is skipped, so its
counters read 0 instead of breaking the run.

Spans stay in memory; :meth:`Tracer.report` turns them into per-layer
seconds, and :func:`per_layer_metrics` into the metrics the benchmark
prints.
"""

from __future__ import annotations

import re
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

CLI_COMMANDS = ("cdnumber", "recognize", "tds", "partize", "gen", "validate")

# (module, attribute, span name): the attribute is wrapped in the module
# whose globals the callers use, which is not always where it is defined.
SITES = (
    ("cdcolor.exact", "cd_chromatic_exact", "exact"),
    ("cdcolor.exact", "build_color_class_family", "exact.family"),
    ("cdcolor.exact", "star_product", "exact.product"),
    ("cdcolor.tds", "cd_chromatic_girth5", "tds.girth5"),
    ("cdcolor.tds", "tds_solve", "tds.solve"),
    ("cdcolor.tds", "tds_kernelize", "tds.kernelize"),
    ("cdcolor.tds", "girth", "graph.girth"),
    ("cdcolor.partize", "partization2", "partize"),
    ("cdcolor.partize", "partization3", "partize"),
    ("cdcolor.partize", "delete_to_type1", "partize.type1"),
    ("cdcolor.partize", "vertex_cover", "fpt.vc"),
    ("cdcolor.partize", "oct_excluding", "fpt.oct_excluding"),
    ("cdcolor.partize", "oct_with_forced_sides", "fpt.oct_forced"),
    ("cdcolor.partize", "_bounded_oct_with_edge", "partize.fallback_enum"),
    ("cdcolor.partize", "cd_recognize_upto3", "recognize"),
    ("cdcolor.fpt", "_forced_sides_bruteforce", "fpt.fallback_brute"),
    ("cdcolor.cli", "cd_chromatic_exact", "exact"),
    ("cdcolor.cli", "cd_chromatic_girth5", "tds.girth5"),
    ("cdcolor.cli", "tds_solve", "tds.solve"),
    ("cdcolor.cli", "tds_kernelize", "tds.kernelize"),
    ("cdcolor.cli", "partization2", "partize"),
    ("cdcolor.cli", "partization3", "partize"),
    ("cdcolor.cli", "cd_recognize_upto3", "recognize"),
    ("cdcolor.cli", "cd_chromatic_split", "split"),
    ("cdcolor.cli", "split_partization", "split"),
    ("cdcolor.cli", "parse_graph", "graph.parse"),
    ("cdcolor.cli", "validate_cd_coloring", "coloring.validate"),
) + tuple(("cdcolor.cli", f"_cmd_{c}", f"cli.{c}") for c in CLI_COMMANDS)

# partization3 reaches the Type solvers through this tuple, not by name.
TYPE_TUPLE = ("cdcolor.partize", "_TYPE_SOLVERS")
_TYPE_NAME = re.compile(r"delete_to_type(\d)$")

TIMED = (
    ["exact", "exact.family", "exact.product", "recognize", "tds.girth5"]
    + ["tds.solve", "tds.kernelize", "graph.girth", "partize"]
    + [f"partize.type{t}" for t in range(1, 6)]
    + ["fpt.vc", "fpt.oct_excluding", "fpt.oct_forced", "partize.fallback_enum"]
    + ["fpt.fallback_brute", "split", "graph.parse", "coloring.validate"]
    + [f"cli.{c}" for c in CLI_COMMANDS]
)
SELF_TIMED = ("exact", "tds.solve")  # span time minus direct children


def _weight_counts(table) -> List[int]:
    """Members of each Hamming weight, without touching the table's caches."""
    masks = sys.modules["cdcolor.bits"].weight_masks(table.n)
    return [(table.bits & m).bit_count() for m in masks]


def _before_product(counts: Counter, args) -> None:
    p, r = args[0], args[1]
    n = p.n
    ci, cj = _weight_counts(p), _weight_counts(r)
    ops = sum(
        min(a, b)
        for i, a in enumerate(ci)
        if a
        for j, b in enumerate(cj)
        if b and i + j <= n
    )
    counts["exact.shift_ops"] += ops
    counts["exact.shift_bytes_computed"] += ops * (1 << n) // 8


def _after_product(counts: Counter, result) -> None:
    counts["exact.product_members"] += result.member_count()


def _after_family(counts: Counter, result) -> None:
    counts["exact.family_members"] += result.member_count()


def _after_kernelize(counts: Counter, outcome) -> None:
    if outcome.verdict == "NO":
        counts["tds.kernel_no"] += 1
        return
    counts["tds.kernel_n_sum"] += outcome.kernel.n
    counts["tds.forced_sum"] += outcome.forced.bit_count()


HOOKS: Dict[str, tuple] = {
    "exact.product": (_before_product, _after_product),
    "exact.family": (None, _after_family),
    "tds.kernelize": (None, _after_kernelize),
}


class Tracer:
    """Records spans as ``[name, start, end, parent index]`` lists."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.installed: List[str] = []
        self._stack: List[int] = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        before, after = HOOKS.get(name, (None, None))
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def hook(fn_hook, value) -> None:
            # a hook reads package internals; if a refactor changed them,
            # count the miss instead of failing the solve
            try:
                fn_hook(counts, value)
            except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                counts["trace.hook_errors"] += 1

        def traced(*args, **kwargs):
            if before is not None:
                hook(before, args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                hook(after, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        """Wrap every site whose module is already imported."""
        for module_name, attr, name in SITES:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                setattr(module, attr, self.wrap(fn, name))
                self.installed.append(f"{module_name}.{attr}")
        module = sys.modules.get(TYPE_TUPLE[0])
        solvers = getattr(module, TYPE_TUPLE[1], None)
        if isinstance(solvers, tuple):
            wrapped = []
            for fn in solvers:
                match = _TYPE_NAME.search(getattr(fn, "__name__", ""))
                wrapped.append(self.wrap(fn, f"partize.type{match.group(1)}") if match else fn)
            setattr(module, TYPE_TUPLE[1], tuple(wrapped))
            self.installed.append(".".join(TYPE_TUPLE))
        return self

    def report(self) -> dict:
        """Per-name calls and seconds, self seconds, and the counters.

        A span nested inside a span of the same name adds to the count
        but not to the time, so recursion is not counted twice.
        """
        calls: Counter = Counter()
        seconds: Dict[str, float] = defaultdict(float)
        child_time: Dict[int, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                seconds[name] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            if name in SELF_TIMED:
                self_s[name] += end - start - child_time[index]
        return {
            "calls": dict(calls),
            "seconds": dict(seconds),
            "self_seconds": dict(self_s),
            "counts": dict(self.counts),
        }


def merge_reports(reports: List[dict]) -> dict:
    """Sum several :meth:`Tracer.report` results (one per process)."""
    out = {"calls": Counter(), "seconds": Counter(), "self_seconds": Counter(), "counts": Counter()}
    for rep in reports:
        for key in out:
            out[key].update(rep.get(key, {}))
    return {key: dict(value) for key, value in out.items()}


def layer_seconds(rep: dict, startup_s: float = 0.0) -> Dict[str, float]:
    """Busy seconds per layer, named as in the benchmark's README."""
    sec, self_s = rep["seconds"], rep["self_seconds"]
    out = {f"{name}_s" if "." in name else f"{name}.s": sec.get(name, 0.0) for name in TIMED}
    out["exact.self_s"] = self_s.get("exact", 0.0)
    out["tds.solve_self_s"] = self_s.get("tds.solve", 0.0)
    out["cli.startup_s"] = startup_s
    return out


def _pct_name(seconds_name: str) -> str:
    return seconds_name[: -len("_s")] + "_pct" if seconds_name.endswith("_s") else seconds_name[: -len(".s")] + ".pct"


def per_layer_metrics(rep: dict, busy_wall_s: float, startup_s: float, overhead_pct: float) -> Dict[str, dict]:
    """Counts, and each layer's busy time as a share of the traced wall time."""
    calls, counts = rep["calls"], rep["counts"]
    metrics: Dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    put("exact.products", calls.get("exact.product", 0), "count")
    put("exact.family_members", counts.get("exact.family_members", 0), "count")
    put("exact.product_members", counts.get("exact.product_members", 0), "count")
    put("exact.shift_ops", counts.get("exact.shift_ops", 0), "count")
    put("exact.shift_bytes_computed", counts.get("exact.shift_bytes_computed", 0), "B")
    put("recognize.calls", calls.get("recognize", 0), "count")
    put("tds.solve_calls", calls.get("tds.solve", 0), "count")
    put("tds.kernelize_calls", calls.get("tds.kernelize", 0), "count")
    put("tds.kernel_n_sum", counts.get("tds.kernel_n_sum", 0), "count")
    put("tds.kernel_no", counts.get("tds.kernel_no", 0), "count")
    put("tds.forced_sum", counts.get("tds.forced_sum", 0), "count")
    put("graph.girth_calls", calls.get("graph.girth", 0), "count")
    for t in range(1, 6):
        put(f"partize.type{t}_calls", calls.get(f"partize.type{t}", 0), "count")
    put("fpt.vc_calls", calls.get("fpt.vc", 0), "count")
    put("fpt.oct_excluding_calls", calls.get("fpt.oct_excluding", 0), "count")
    put("fpt.oct_forced_calls", calls.get("fpt.oct_forced", 0), "count")
    put("partize.fallback_enum_calls", calls.get("partize.fallback_enum", 0), "count")
    put("fpt.fallback_brute_calls", calls.get("fpt.fallback_brute", 0), "count")
    oct_calls = calls.get("fpt.oct_excluding", 0)
    put(
        "partize.fallback_share",
        calls.get("partize.fallback_enum", 0) / oct_calls if oct_calls else 0.0,
        "ratio",
    )
    for name, value in layer_seconds(rep, startup_s).items():
        put(_pct_name(name), 100.0 * value / busy_wall_s if busy_wall_s > 0 else 0.0, "%")
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics


def spans_payload(tracer: Optional[Tracer]) -> dict:
    if tracer is None:
        return {"installed": [], "spans": []}
    return {"installed": tracer.installed, "spans": tracer.spans}

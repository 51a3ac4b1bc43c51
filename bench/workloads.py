"""The four library workloads: seeded inputs, reference answers, solves, checks.

Each workload is a list of instances built from one ``random.Random``.
Every instance carries its reference answer (``expected``), computed
with :mod:`oracles` and never with the solver under test; ``check``
compares the solver's answer with it and re-validates the certificate
with the package's own validators.  Where an answer is cheap to compute
it also fixes the instance mix: a draw is kept only when its answer
fills the next slot of a fixed quota, so every run has the same mix of
answers and only the graphs change with the seed.  The ``cli-mix``
workload lives in :mod:`cli_mix`.

``cd`` is a namespace of freshly imported ``cdcolor`` modules.  Solvers
are always looked up through it at call time, so the layer wrappers of
a traced run see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import oracles

SPARSE_N = 19
SPARSE_P = (0.2, 0.5)
HUB_BASE_N = 9  # lift adds the hub and k + 4 pendants: n = 16
HUB_K = 2
# (chromatic number, edges) of the base by slot: q = 3, 4, 5.  A fixed
# edge count keeps the number of independent sets, which sets the cost
# of the dense powers, from varying threefold between draws.
HUB_SLOTS = ((2, 10), (3, 16), (4, 20))
GIRTH5_DENSITY = 0.3
# (n, hub, total domination number) by slot.  8 is the most common value
# at both sizes; a graph with 9 at n = 30 costs twice as much and varies
# twice as much, which would dominate the spread between seeds.
GIRTH5_TARGETS = ((30, False, 8), (40, True, 8))

# One cycle of partize-lift: (kind, base n, k).  The cheap instances
# (planted YES and VC lifts) are 3 of 10 and the costliest (NO at k=3)
# 2 of 10, so the median latency falls in the middle of the NO k=2
# group instead of on the edge between two groups.
PARTIZE_CYCLE = (
    ("oct-yes", 28, 3),
    ("oct-no", 30, 2),
    ("oct-no", 24, 3),
    ("oct-no", 30, 2),
    ("vc", 24, 3),
    ("oct-no", 30, 2),
    ("oct-yes", 32, 2),
    ("oct-no", 30, 2),
    ("oct-no", 24, 3),
    ("oct-no", 30, 2),
)


class Oracle:
    """Calls oracles, remembering answers and the seconds spent on them.

    Set-up runs several times per run on the same inputs; the answers
    are computed once, and their cost is kept out of ``setup_s``.
    """

    def __init__(self):
        self.seconds = 0.0
        self._answers: dict = {}

    def __call__(self, fn: Callable, *args):
        key = (fn.__name__, repr(args))
        if key not in self._answers:
            start = time.perf_counter()
            self._answers[key] = fn(*args)
            self.seconds += time.perf_counter() - start
        return self._answers[key]


@dataclass(frozen=True)
class Workload:
    name: str
    count: int  # instances in one pass
    generate: Callable  # (cd, rng, count, oracle) -> instance dicts with "expected"
    solve: Callable  # (cd, instance) -> solver result
    check: Callable  # (cd, instance, result) -> problem or None
    warm: Callable = lambda cd, instances: None


def oracle_args(g):
    """``(n, adj)`` of a package graph, as the oracles take it."""
    return g.n, oracles.adjacency(g.n, g.edges())


def _check_coloring(cd, inst, result) -> Optional[str]:
    q, coloring = result
    expected = inst["expected"]
    if q != expected:
        return f"q={q}, expected {expected}"
    if coloring.q != q:
        return f"certificate has {coloring.q} classes, q={q}"
    report = cd.coloring.validate_cd_coloring(inst["g"], coloring)
    if not report.ok:
        return f"invalid certificate: {report.problem}"
    return None


def _warm_weight_masks(cd, instances) -> None:
    for n in sorted({inst["g"].n for inst in instances}):
        cd.bits.weight_masks(n)


def _permuted(cd, n: int, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return cd.graph.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def _with_edges(cd, n: int, m: int, rng, pairs=None):
    """Uniform graph on n vertices with exactly m edges (from ``pairs``)."""
    if pairs is None:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return cd.graph.Graph.from_edges(n, rng.sample(pairs, m))


def random_bipartite(cd, n: int, p: float, rng):
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if side[u] != side[v] and rng.random() < p
    ]
    return cd.graph.Graph.from_edges(n, edges)


# -- exact-sparse ---------------------------------------------------------------


def _gen_exact_sparse(cd, rng, count, oracle):
    out = []
    for i in range(count):
        g = cd.generate.random_connected_graph(SPARSE_N, SPARSE_P[i % 2], rng)
        out.append({"g": g, "expected": oracle(oracles.cd_number, *oracle_args(g))})
    return out


# -- exact-hub ------------------------------------------------------------------


def _gen_exact_hub(cd, rng, count, oracle):
    """Bases with the slot's edge count are drawn until their chromatic
    number fills the slot; bipartite bases have sides of 4 and 5."""
    out = []
    n = HUB_BASE_N
    for i in range(count):
        chi, m = HUB_SLOTS[i % len(HUB_SLOTS)]
        while True:
            pairs = None
            if chi == 2:
                side = rng.sample(range(n), n // 2)
                pairs = [(min(u, v), max(u, v)) for u in side for v in range(n) if v not in side]
            base = _with_edges(cd, n, m, rng, pairs)
            if oracle(oracles.chromatic_number, *oracle_args(base)) == chi:
                break
        lift = cd.split.generate_from_partization(base, HUB_K, 2)
        # The hub is adjacent to everything, so it is a class of its own
        # and dominates every other class: q = 1 + chi(base).
        out.append({"g": lift.graph, "expected": 1 + chi})
    return out


# -- girth5-tds -----------------------------------------------------------------


def _gen_girth5(cd, rng, count, oracle):
    """Graphs are drawn until their total domination number fills the slot.

    On connected triangle-free graphs with n >= 2 the cd-chromatic
    number equals the total domination number.
    """
    out = []
    for i in range(count):
        n, hub, gamma = GIRTH5_TARGETS[i % len(GIRTH5_TARGETS)]
        while True:
            g = cd.generate.random_girth5_graph(
                n, rng, density=GIRTH5_DENSITY, connected=True, hub=hub
            )
            if oracle(oracles.min_tds, *oracle_args(g)) == gamma:
                break
        out.append({"g": g, "expected": gamma})
    return out


# -- partize-lift ---------------------------------------------------------------


def planted_oct_base(cd, n: int, k: int, rng):
    """Random bipartite graph on n - k vertices plus k free vertices."""
    core = random_bipartite(cd, n - k, 0.3, rng)
    edges = list(core.edges())
    for x in range(n - k, n):
        edges.extend((v, x) for v in range(x) if rng.random() < 0.3)
    return _permuted(cd, n, edges, rng)


def _planted_vc_base(cd, n: int, k: int, rng):
    """Every edge touches one of k centers."""
    edges = [(c, v) for c in range(k) for v in range(k, n) if rng.random() < 0.4]
    return _permuted(cd, n, edges, rng)


def _gen_partize(cd, rng, count, oracle):
    out = []
    for i in range(count):
        kind, n, k = PARTIZE_CYCLE[i % len(PARTIZE_CYCLE)]
        planted = kind == "oct-yes" or (kind == "vc" and (i // len(PARTIZE_CYCLE)) % 2 == 0)
        if kind == "oct-yes":
            base = planted_oct_base(cd, n, k, rng)
        elif kind == "oct-no":
            # a quarter of all pairs, as a fixed count: the NO instances'
            # cost follows the edge count
            base = _with_edges(cd, n, n * (n - 1) // 8, rng)
        elif planted:
            base = _planted_vc_base(cd, n, k, rng)
        else:
            base = cd.generate.random_graph(n, 0.1, rng)
        q_base = 1 if kind == "vc" else 2
        if planted:
            expected = True
        else:
            search = oracles.min_vc if q_base == 1 else oracles.min_oct
            expected = oracle(search, *oracle_args(base), k) is not None
        lift = cd.split.generate_from_partization(base, k, q_base)
        out.append({"g": lift.graph, "k": k, "q": q_base + 1, "expected": expected})
    return out


def _solve_partize(cd, inst):
    solver = cd.partize.partization2 if inst["q"] == 2 else cd.partize.partization3
    return solver(inst["g"], inst["k"])


def _check_partize(cd, inst, sol) -> Optional[str]:
    expected = inst["expected"]
    if (sol is not None) != expected:
        return f"answered {'YES' if sol is not None else 'NO'}, expected {'YES' if expected else 'NO'}"
    if sol is None:
        return None
    if sol.deleted.bit_count() > inst["k"]:
        return f"deleted {sol.deleted.bit_count()} > k={inst['k']} vertices"
    report = cd.partize.validate_deletion(inst["g"], sol, inst["q"])
    if not report.ok:
        return f"invalid certificate: {report.problem}"
    return None


LIBRARY = {
    w.name: w
    for w in (
        Workload(
            "exact-sparse",
            48,
            _gen_exact_sparse,
            lambda cd, inst: cd.exact.cd_chromatic_exact(inst["g"]),
            _check_coloring,
            _warm_weight_masks,
        ),
        Workload(
            "exact-hub",
            42,
            _gen_exact_hub,
            lambda cd, inst: cd.exact.cd_chromatic_exact(inst["g"]),
            _check_coloring,
            _warm_weight_masks,
        ),
        Workload(
            "girth5-tds",
            128,
            _gen_girth5,
            lambda cd, inst: cd.tds.cd_chromatic_girth5(inst["g"]),
            _check_coloring,
        ),
        Workload(
            "partize-lift",
            36,
            _gen_partize,
            _solve_partize,
            _check_partize,
        ),
    )
}

"""Named graph families and seeded random instance builders.

Every random builder takes an explicit :class:`random.Random` so that a
fixed seed reproduces instances byte for byte.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .bits import iter_bits
from .graph import Graph, connected_components


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """Star with the center at vertex 0."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def net_graph() -> Graph:
    """Triangle with one pendant vertex hanging off each corner."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])


def complete_split_graph(clique: int, independent: int) -> Graph:
    """Clique fully joined to an independent set."""
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(u, clique + w) for u in range(clique) for w in range(independent)]
    return Graph.from_edges(clique + independent, edges)


def disjoint_union(*graphs: Graph) -> Graph:
    n = 0
    edges: List[Tuple[int, int]] = []
    for g in graphs:
        edges.extend((n + u, n + v) for u, v in g.edges())
        n += g.n
    return Graph.from_edges(n, edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph patched to be connected by bridging its components."""
    g = random_graph(n, p, rng)
    comps = connected_components(g)
    if len(comps) <= 1:
        return g
    edges = g.edges()
    anchor = rng.choice(list(iter_bits(comps[0])))
    for comp in comps[1:]:
        edges.append((anchor, rng.choice(list(iter_bits(comp)))))
        anchor = rng.choice(list(iter_bits(comps[0] | comp)))
    return Graph.from_edges(n, edges)


def random_girth5_graph(
    n: int,
    rng: random.Random,
    density: float = 0.5,
    connected: bool = False,
    hub: bool = False,
) -> Graph:
    """Random graph of girth at least 5.

    Candidate edges arrive in random order and are kept only when the
    endpoints are currently at distance >= 4, so no cycle shorter than 5
    ever appears.  ``hub=True`` first wires vertex 0 to a random batch
    of vertices, producing the high-degree centers the kernel rules care
    about.  Bridging components afterwards cannot create cycles.
    """
    adj = [0] * n
    if hub and n > 2:
        spokes = rng.sample(range(1, n), max(2, (n - 1) // 2))
        for v in spokes:
            adj[0] |= 1 << v
            adj[v] |= 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if (adj[u] >> v) & 1 or rng.random() >= density:
            continue
        ball2 = adj[u] | (1 << u)  # vertices within distance 2 of u
        for w in iter_bits(adj[u]):
            ball2 |= adj[w]
        if not adj[v] & ball2:  # v is at distance >= 4 from u
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    g = Graph(n, adj)
    if connected:
        comps = connected_components(g)
        edges = g.edges()
        for comp in comps[1:]:
            edges.append((next(iter_bits(comps[0])), next(iter_bits(comp))))
        g = Graph.from_edges(n, edges)
    return g


def random_split_graph(
    n: int, rng: random.Random, p: float = 0.5, connected: bool = False
) -> Graph:
    """Random split graph: clique on a prefix, independent rest.

    ``n = 0`` gives the empty graph without drawing from ``rng``.
    """
    if n == 0:
        return Graph(0, [])
    c = rng.randint(1, n)
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    for w in range(c, n):
        nbrs = [u for u in range(c) if rng.random() < p]
        if connected and not nbrs:
            nbrs = [rng.randrange(c)]
        edges.extend((u, w) for u in nbrs)
    return Graph.from_edges(n, edges)

"""Fixed graph shapes and small helpers used only by the tests.

The shapes are the named graphs whose cd-chromatic numbers, total
domination numbers and deletion answers the tests pin: complete graphs,
paths, cycles, stars, the Petersen graph, the net and complete split
graphs.  ``is_connected`` filters random instances for the routes that
need a connected graph, and ``relabeled`` carries a coloring of a
relabeled copy back to the input's vertex ids.
"""

from __future__ import annotations

from typing import Sequence

from cdcolor.coloring import CdColoring
from cdcolor.graph import Graph, more_components_than


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


def is_connected(g: Graph) -> bool:
    return not more_components_than(g, g.full_mask, 1)


def relabeled(coloring: CdColoring, mapping: Sequence[int]) -> CdColoring:
    """Apply a vertex renaming (index -> mapping[index])."""
    return CdColoring(
        tuple(tuple(mapping[v] for v in cls) for cls in coloring.classes),
        tuple(mapping[d] for d in coloring.dominators),
    )

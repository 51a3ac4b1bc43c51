"""Split-graph specializations and the two hardness-style generators.

On a connected split graph the cd-chromatic number equals the clique
number, and an optimal coloring is assembled directly from the
partition.  Deletion questions branch on an oversized clique; once the
clique fits, only leftover isolated vertices can keep the count high
and they are interchangeable, so a closed form finishes.

The generators build labeled deletion instances from set-cover and from
proper-coloring deletion inputs, with the expected answer attached when
a small oracle can afford to compute it.
"""

from __future__ import annotations

import itertools
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .bits import bit_list, iter_bits, mask_of
from .coloring import CdColoring, make_coloring, solve_per_component, validate_cd_coloring
from .errors import NotSplitError, PreconditionError
from .fpt import odd_cycle_transversal, vertex_cover
from .graph import MAX_VERTICES, Graph, split_partition
from .partize import DeletionSolution


def _split_component(g: Graph, comp: int, clique: int) -> Tuple[int, CdColoring]:
    """Color the split-graph component ``comp`` around its maximum clique.

    Clique vertices seed the classes.  Class ``i`` is dominated by the
    cyclically next clique vertex, and an independent vertex joins the
    first class ``i`` where it misses clique vertex ``i`` but knows
    clique vertex ``i + 1``; such a spot always exists because its
    clique neighborhood is a proper, nonempty subset.
    """
    cl = bit_list(clique)
    omega = len(cl)
    class_masks = [1 << c for c in cl]
    dominators = [cl[(i + 1) % omega] for i in range(omega)]
    for v in iter_bits(comp & ~clique):
        nv = g.adj[v]
        for i in range(omega):
            if not (nv >> cl[i]) & 1 and (nv >> cl[(i + 1) % omega]) & 1:
                class_masks[i] |= 1 << v
                break
        else:
            raise AssertionError("independent vertex with full or empty clique view")
    coloring = make_coloring(class_masks, dominators)
    report = validate_cd_coloring(g, coloring, comp)
    assert report.ok, report.problem
    return omega, coloring


def cd_chromatic_split(g: Graph, active: Optional[int] = None) -> Tuple[int, CdColoring]:
    """Split-graph cd-chromatic number of ``g[active]`` (all of ``g`` by
    default); the one component with edges holds the maximum clique."""
    parts = split_partition(g, active)
    if parts is None:
        raise NotSplitError("graph is not a split graph")
    return solve_per_component(g, lambda g, c: _split_component(g, c, parts[0] & c), active)


def _split_chi_parts(g: Graph, active: int) -> Tuple[int, int, int]:
    """Color count of the active part: clique number of the one edged
    component plus the isolated vertices; returns (chi, max clique mask,
    isolated vertex mask).  An edgeless part has clique mask 0."""
    parts = split_partition(g, active)
    assert parts is not None, "induced subgraph of a split graph is split"
    clique = parts[0] if parts[0] & (parts[0] - 1) else 0
    singles = mask_of(v for v in iter_bits(active) if not g.adj[v] & active)
    return clique.bit_count() + singles.bit_count(), clique, singles


def split_partization(g: Graph, k: int, q: int) -> Optional[DeletionSolution]:
    """Delete at most k vertices of a split graph to reach q colors.

    While some clique exceeds q, every solution hits any q + 1 of its
    vertices, so branch on deleting each.  Afterwards only isolated
    vertices inflate the count; they are interchangeable and each
    deletion lowers the count by exactly one, which no deletion beats.
    The remainder is colored in place with the split closed form.
    """
    if split_partition(g) is None:
        raise NotSplitError("graph is not a split graph")
    if k < 0 or q < 0:
        return None

    def rec(active: int, budget: int, deleted: int) -> Optional[int]:
        chi, clique, singles = _split_chi_parts(g, active)
        if chi <= q:
            return deleted
        if clique.bit_count() > q:
            if budget == 0:
                return None
            for c in bit_list(clique)[: q + 1]:
                res = rec(active & ~(1 << c), budget - 1, deleted | (1 << c))
                if res is not None:
                    return res
            return None
        need = chi - q  # only isolated vertices are left to shed
        if need <= budget and need <= singles.bit_count():
            return deleted | mask_of(bit_list(singles)[:need])
        return None

    deleted = rec(g.full_mask, k, 0)
    if deleted is None:
        return None
    _, coloring = cd_chromatic_split(g, g.full_mask & ~deleted)
    return DeletionSolution(deleted, (("Split", None),), coloring)


# -- instance generators -------------------------------------------------------


class GeneratedInstance(NamedTuple):
    """A labeled deletion instance plus provenance and expected answer."""

    graph: Graph
    k: int
    q: int
    expected: Optional[bool]
    roles: Dict[str, str]
    source: str


def _bruteforce_set_cover(universe: int, sets: Sequence[frozenset], k: int) -> bool:
    need = frozenset(range(1, universe + 1))
    for size in range(min(k, len(sets)) + 1):
        for combo in itertools.combinations(sets, size):
            covered = frozenset().union(*combo) if combo else frozenset()
            if need <= covered:
                return True
    return False


def _require_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise PreconditionError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def generate_from_setcover(
    universe_size: int, sets: Sequence, k: int
) -> GeneratedInstance:
    """Deletion instance encoding a set cover question.

    Set vertices form a clique, element vertices an independent set,
    with an edge exactly when the element is missing from the set; a
    universal hub and its pendant fringe pin the colorings down.  The
    instance asks for k' = m - k deletions reaching k + 1 colors, which
    succeeds exactly when k sets cover the universe.
    """
    fams = [frozenset(s) for s in sets]
    m = len(fams)
    if m == 0 or any(not s for s in fams):
        raise PreconditionError("sets must be nonempty")
    if any(not (1 <= x <= universe_size) for s in fams for x in s):
        raise PreconditionError("set elements must lie in the universe")
    if not 0 <= k <= m:
        raise PreconditionError("k must lie between 0 and the number of sets")
    _require_vertex_count(2 * m + universe_size + 3)
    k2 = m - k
    q = k + 1
    pendants = k + k2 + 2
    labels = (
        [f"S{j + 1}" for j in range(m)]
        + [f"x{i + 1}" for i in range(universe_size)]
        + ["w0"]
        + [f"w{t + 1}" for t in range(pendants)]
    )
    hub = m + universe_size
    edges = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for i in range(universe_size):
        for j in range(m):
            if (i + 1) not in fams[j]:
                edges.append((m + i, j))
    edges.extend((hub, v) for v in range(hub))
    edges.extend((hub, hub + 1 + t) for t in range(pendants))
    graph = Graph.from_edges(len(labels), edges, labels=labels)
    roles = {f"S{j + 1}": f"set {sorted(fams[j])}" for j in range(m)}
    roles.update({f"x{i + 1}": f"element {i + 1}" for i in range(universe_size)})
    roles["w0"] = "universal hub"
    roles.update({f"w{t + 1}": "pendant" for t in range(pendants)})
    expected = (
        _bruteforce_set_cover(universe_size, fams, k) if m <= 16 else None
    )
    return GeneratedInstance(graph, k2, q, expected, roles, "setcover")


def generate_from_partization(g: Graph, k: int, q_base: int) -> GeneratedInstance:
    """Lift a proper-coloring deletion instance by one color.

    Adds a universal vertex plus k + q_base + 2 pendants on it; deleting
    k vertices of the result reaches q_base + 1 cd-colors exactly when
    deleting k vertices of the input reaches q_base proper colors
    (q_base 1: vertex cover, q_base 2: odd cycle transversal).
    """
    if q_base not in (1, 2):
        raise PreconditionError("q_base must be 1 or 2")
    if k < 0:
        raise PreconditionError("k must be non-negative")
    _require_vertex_count(g.n + k + q_base + 3)
    pendants = k + q_base + 2
    base_labels = [str(g.label(v)) for v in range(g.n)]
    labels = base_labels + ["u"] + [f"p{t + 1}" for t in range(pendants)]
    hub = g.n
    edges = list(g.edges())
    edges.extend((hub, v) for v in range(g.n))
    edges.extend((hub, hub + 1 + t) for t in range(pendants))
    graph = Graph.from_edges(len(labels), edges, labels=labels)
    roles = {lab: "input vertex" for lab in base_labels}
    roles["u"] = "universal hub"
    roles.update({f"p{t + 1}": "pendant" for t in range(pendants)})
    expected = None
    if g.n <= 20:
        if q_base == 1:
            expected = vertex_cover(g, k) is not None
        else:
            expected = odd_cycle_transversal(g, k) is not None
    return GeneratedInstance(graph, k, q_base + 1, expected, roles, f"lift-q{q_base}")
